// Package metriclint implements the tbsvet analyzer for the Prometheus
// exposition conventions of the hand-rolled /metrics renderers. The
// daemons emit metrics as text lines built with fmt.Appendf-style
// helpers, so the contract lives in string literals; metriclint parses
// them back out and enforces:
//
//   - names are prefixed tbsd_/tbsrouter_ and snake_case;
//   - names carry Prometheus base units — _ms/_kb-style suffixes and
//     unitless _latency/_duration names are rejected;
//   - a bare (label-free) metric name is emitted at most once per
//     rendering function (the "registered once" rule — these renderers
//     ARE the registry, so a second emission is a duplicate series);
//   - dynamic label values flow through obs.EscapeLabel: a %s/%v verb in
//     label position must be fed a constant, a non-string value, or an
//     EscapeLabel result, and the same applies to label strings built by
//     concatenation; %q is accepted as self-quoting (Go's escapes cover
//     every exposition-breaking character), but an unquoted %s is always
//     malformed;
//   - no exposition line carries a stat label: {stat="p99"}-style
//     per-process quantile gauges do not aggregate across nodes, so
//     latencies render as histograms through (*obs.Histogram).AppendProm.
//
// Three literal shapes are recognized: full exposition lines
// ("tbsd_x_total %d", `tbsd_up{node="%s"} %d`), bare metric names
// passed to helpers ("tbsd_advance_latency_seconds"), and names passed
// to (*obs.Histogram).AppendProm — including prefix+"_suffix" concats,
// whose literal part is checked alone.
package metriclint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the metriclint analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "metriclint",
	Doc:  "Prometheus metric names must be tbsd_/tbsrouter_ snake_case with base units; dynamic labels must use obs.EscapeLabel; latencies are histograms, not stat-labelled quantile gauges",
	Run:  run,
}

var (
	// lineRE matches an exposition-line format literal: NAME{LABELS} VERB
	// where NAME may itself be a verb (dynamic-name helpers like
	// "%s{node=%q} %d" — label checks still apply).
	lineRE = regexp.MustCompile(`^(%[a-zA-Z]|[A-Za-z_][A-Za-z0-9_]*)(\{([^}]*)\})? %`)
	// bareNameRE matches a metric name on its own.
	bareNameRE = regexp.MustCompile(`^(tbsd|tbsrouter)_[A-Za-z0-9_]+$`)
	snakeRE    = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
	// labelValRE finds label entries and their value form:
	// k="%s" / k="%v" / k="..." / k=%q.
	labelValRE = regexp.MustCompile(`([A-Za-z_][A-Za-z0-9_]*)=("(?:%[a-zA-Z]|[^"%]*)"|%[a-zA-Z])`)
)

// bannedUnits maps rejected unit suffixes to the base unit to use.
var bannedUnits = map[string]string{
	"_ms": "_seconds", "_msec": "_seconds", "_millis": "_seconds", "_milliseconds": "_seconds",
	"_us": "_seconds", "_usec": "_seconds", "_micros": "_seconds", "_microseconds": "_seconds",
	"_ns": "_seconds", "_nanos": "_seconds", "_nanoseconds": "_seconds",
	"_mins": "_seconds", "_minutes": "_seconds", "_hours": "_seconds", "_days": "_seconds",
	"_kb": "_bytes", "_mb": "_bytes", "_gb": "_bytes", "_kib": "_bytes", "_mib": "_bytes", "_gib": "_bytes",
}

// unitlessSuffixes are name endings that promise a measurement but name
// no unit.
var unitlessSuffixes = []string{"_latency", "_duration", "_time", "_elapsed"}

type checker struct {
	pass *analysis.Pass
	// seen tracks bare names emitted per enclosing function.
	seen map[ast.Node]map[string]bool
	// escaped caches, per enclosing function, which local variables are
	// single-assigned from obs.EscapeLabel.
	escaped map[ast.Node]map[types.Object]bool
	// reported dedupes diagnostics: a literal can be reached through
	// several rules (bare name and AppendProm argument, say).
	reported map[reportKey]bool
}

type reportKey struct {
	pos token.Pos
	msg string
}

func (c *checker) reportf(pos token.Pos, format string, args ...any) {
	k := reportKey{pos, fmt.Sprintf(format, args...)}
	if c.reported[k] {
		return
	}
	c.reported[k] = true
	c.pass.Reportf(pos, "%s", k.msg)
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:     pass,
		seen:     make(map[ast.Node]map[string]bool),
		escaped:  make(map[ast.Node]map[types.Object]bool),
		reported: make(map[reportKey]bool),
	}
	for _, f := range pass.Files {
		analysis.WalkStack(f, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.BasicLit:
				if n.Kind == token.STRING {
					c.checkLiteral(n, stack)
				}
			case *ast.CallExpr:
				c.checkAppendProm(n)
			case *ast.BinaryExpr:
				c.checkConcatLabels(n, stack)
			}
			return true
		})
	}
	return nil
}

func (c *checker) checkLiteral(lit *ast.BasicLit, stack []ast.Node) {
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	if m := lineRE.FindStringSubmatch(s); m != nil {
		name, labels := m[1], m[3]
		// Log formats also look like "word %v"; only a multi-word
		// snake_case name or an explicit label block marks an exposition
		// line.
		if !strings.Contains(name, "_") && m[2] == "" {
			return
		}
		if !strings.HasPrefix(name, "%") {
			c.checkName(lit, name, true)
			if m[2] == "" { // label-free: the registered-once rule
				c.checkDuplicate(lit, name, stack)
			}
		}
		if labels != "" {
			c.checkStatLabel(lit, labels)
			c.checkLabelVerbs(lit, s, labels, stack)
		}
		return
	}
	if bareNameRE.MatchString(s) {
		// A bare name (helper argument): name rules apply, duplicate and
		// label rules don't — helpers fan one name into _count/_sum
		// series themselves.
		c.checkName(lit, s, false)
	}
}

// checkName enforces prefix (for exposition lines), snake case, and
// unit conventions.
func (c *checker) checkName(lit *ast.BasicLit, name string, needPrefix bool) {
	if needPrefix && !strings.HasPrefix(name, "tbsd_") && !strings.HasPrefix(name, "tbsrouter_") &&
		!strings.HasPrefix(name, "go_") && !strings.HasPrefix(name, "process_") {
		// go_/process_ are the standard client conventions for the
		// runtime/process bridge metrics.
		c.reportf(lit.Pos(), "metric name %q must start with tbsd_ or tbsrouter_", name)
	}
	c.checkNameShape(lit, name)
}

func (c *checker) checkNameShape(lit *ast.BasicLit, name string) {
	if !snakeRE.MatchString(name) || strings.Contains(name, "__") || strings.HasSuffix(name, "_") {
		c.reportf(lit.Pos(), "metric name %q is not snake_case", name)
		return
	}
	base := strings.TrimSuffix(name, "_total")
	for unit, instead := range bannedUnits {
		if strings.HasSuffix(base, unit) {
			c.reportf(lit.Pos(), "metric name %q uses non-base unit %q — use %s (Prometheus base units)", name, unit, instead)
			return
		}
	}
	for _, suf := range unitlessSuffixes {
		if strings.HasSuffix(base, suf) {
			c.reportf(lit.Pos(), "metric name %q needs a base-unit suffix after %q (e.g. _seconds)", name, suf)
			return
		}
	}
}

// checkDuplicate enforces once-per-function emission of bare names.
func (c *checker) checkDuplicate(lit *ast.BasicLit, name string, stack []ast.Node) {
	fn := enclosingFunc(stack)
	if fn == nil {
		return
	}
	m := c.seen[fn]
	if m == nil {
		m = make(map[string]bool)
		c.seen[fn] = m
	}
	if m[name] {
		c.reportf(lit.Pos(), "metric %q emitted more than once in this function — duplicate series registration", name)
	}
	m[name] = true
}

// checkStatLabel rejects a stat key in a label block, the shape of a
// per-process quantile gauge.
func (c *checker) checkStatLabel(lit *ast.BasicLit, labels string) {
	for _, m := range labelValRE.FindAllStringSubmatch(labels, -1) {
		if m[1] == "stat" {
			c.reportf(lit.Pos(), "label \"stat\": per-process quantile gauges do not aggregate across nodes; render latencies with (*obs.Histogram).AppendProm")
			return
		}
	}
}

// checkLabelVerbs validates the arguments feeding %-verbs in label
// position of a format literal.
func (c *checker) checkLabelVerbs(lit *ast.BasicLit, format, labels string, stack []ast.Node) {
	call, argBase := enclosingFormatCall(lit, stack)
	if call == nil {
		return
	}
	labelOff := strings.Index(format, "{")
	for _, m := range labelValRE.FindAllStringSubmatchIndex(labels, -1) {
		key := labels[m[2]:m[3]]
		val := labels[m[4]:m[5]]
		verb, quoted := "", false
		switch {
		case strings.HasPrefix(val, `"`) && strings.Contains(val, "%"):
			verb, quoted = val[strings.Index(val, "%"):strings.Index(val, "%")+2], true
		case strings.HasPrefix(val, "%"):
			verb = val[:2]
		default:
			continue // constant label value
		}
		// Which verb ordinal is this within the whole format string?
		// Label content starts one past the opening brace.
		verbPos := labelOff + 1 + m[4]
		if quoted {
			verbPos += strings.Index(val, "%")
		}
		ordinal := verbOrdinal(format, verbPos)
		argIdx := argBase + ordinal
		if ordinal < 0 || argIdx >= len(call.Args) {
			continue
		}
		arg := call.Args[argIdx]
		switch verb {
		case "%q":
			// Self-quoting: Go's %q escapes \, ", and newline — every
			// character that could break the exposition line.
		case "%s", "%v":
			if !quoted {
				c.reportf(lit.Pos(), "label %q value %s is unquoted in the exposition format", key, verb)
				continue
			}
			if !c.isEscapeSafe(arg, stack) {
				c.reportf(arg.Pos(), "dynamic value for label %q must flow through obs.EscapeLabel", key)
			}
		}
	}
}

// checkAppendProm validates metric-name arguments of AppendProm calls,
// including prefix+"_suffix" concatenations.
func (c *checker) checkAppendProm(call *ast.CallExpr) {
	f := analysis.CalleeFunc(c.pass.TypesInfo, call)
	if f == nil || f.Name() != "AppendProm" || len(call.Args) < 2 {
		return
	}
	switch name := ast.Unparen(call.Args[1]).(type) {
	case *ast.BasicLit:
		if name.Kind != token.STRING {
			return
		}
		if s, err := strconv.Unquote(name.Value); err == nil {
			c.checkName(name, s, true)
		}
	case *ast.BinaryExpr:
		// prefix + "_suffix": the dynamic prefix is the daemon name;
		// check the literal tail's shape and units (snake body without
		// the leading-letter requirement).
		if name.Op != token.ADD {
			return
		}
		if suffix, ok := ast.Unparen(name.Y).(*ast.BasicLit); ok && suffix.Kind == token.STRING {
			if s, err := strconv.Unquote(suffix.Value); err == nil {
				c.checkNameShape(suffix, "x"+s) // fuse a stand-in head so ^[a-z] passes
			}
		}
	}
}

// checkConcatLabels enforces EscapeLabel on label strings built with +:
// any operand directly following a literal that ends `="` must be
// escape-safe.
func (c *checker) checkConcatLabels(bin *ast.BinaryExpr, stack []ast.Node) {
	if bin.Op != token.ADD || !c.isStringTyped(bin) {
		return
	}
	// Only handle the outermost + of a chain.
	if len(stack) > 0 {
		if p, ok := stack[len(stack)-1].(*ast.BinaryExpr); ok && p.Op == token.ADD {
			return
		}
	}
	ops := flattenAdd(bin)
	for i := 0; i+1 < len(ops); i++ {
		lit, ok := ast.Unparen(ops[i]).(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			continue
		}
		s, err := strconv.Unquote(lit.Value)
		if err != nil || !strings.HasSuffix(s, `="`) {
			continue
		}
		if !c.isEscapeSafe(ops[i+1], stack) {
			key := s[strings.LastIndexAny(s, `,{ `)+1 : len(s)-2]
			c.reportf(ops[i+1].Pos(), "dynamic value for label %q must flow through obs.EscapeLabel", key)
		}
	}
}

func flattenAdd(e ast.Expr) []ast.Expr {
	if bin, ok := ast.Unparen(e).(*ast.BinaryExpr); ok && bin.Op == token.ADD {
		return append(flattenAdd(bin.X), flattenAdd(bin.Y)...)
	}
	return []ast.Expr{e}
}

// isEscapeSafe reports whether the expression cannot smuggle unescaped
// characters into a label value: constants, non-strings, EscapeLabel
// results (direct or via a single-assignment local), and formatted
// numbers are safe.
func (c *checker) isEscapeSafe(e ast.Expr, stack []ast.Node) bool {
	e = ast.Unparen(e)
	tv, ok := c.pass.TypesInfo.Types[e]
	if ok && tv.Value != nil {
		return true // constant
	}
	if ok && tv.Type != nil && !c.isStringTyped(e) {
		return true // numbers etc. format to label-safe characters
	}
	switch e := e.(type) {
	case *ast.CallExpr:
		if f := analysis.CalleeFunc(c.pass.TypesInfo, e); f != nil {
			switch f.Name() {
			case "EscapeLabel":
				return true
			case "Itoa", "FormatInt", "FormatUint", "FormatFloat", "FormatBool":
				return true
			case "Sprint", "Sprintf", "Sprintln":
				for _, arg := range e.Args {
					if c.isStringTyped(arg) {
						tv, ok := c.pass.TypesInfo.Types[arg]
						if !ok || tv.Value == nil {
							return false
						}
					}
				}
				return true
			}
		}
		return false
	case *ast.Ident:
		obj := c.pass.TypesInfo.Uses[e]
		if obj == nil {
			return false
		}
		fn := enclosingFunc(stack)
		if fn == nil {
			return false
		}
		return c.escapedVars(fn)[obj]
	}
	return false
}

// escapedVars computes (and caches) the set of locals in fn that are
// assigned exactly once, from an EscapeLabel call.
func (c *checker) escapedVars(fn ast.Node) map[types.Object]bool {
	if m, ok := c.escaped[fn]; ok {
		return m
	}
	assigns := make(map[types.Object]int)
	fromEscape := make(map[types.Object]bool)
	ast.Inspect(fn, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := c.pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = c.pass.TypesInfo.Uses[id]
			}
			if obj == nil {
				continue
			}
			assigns[obj]++
			if i < len(as.Rhs) {
				if call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr); ok {
					if f := analysis.CalleeFunc(c.pass.TypesInfo, call); f != nil && f.Name() == "EscapeLabel" {
						fromEscape[obj] = true
					}
				}
			}
		}
		return true
	})
	m := make(map[types.Object]bool)
	for obj := range fromEscape {
		if assigns[obj] == 1 {
			m[obj] = true
		}
	}
	c.escaped[fn] = m
	return m
}

func (c *checker) isStringTyped(e ast.Expr) bool {
	t := c.pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// enclosingFunc returns the innermost FuncDecl or FuncLit on the stack.
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

// enclosingFormatCall finds the call the literal is a direct argument
// of, returning the index of the first variadic value after it.
func enclosingFormatCall(lit *ast.BasicLit, stack []ast.Node) (*ast.CallExpr, int) {
	if len(stack) == 0 {
		return nil, 0
	}
	call, ok := stack[len(stack)-1].(*ast.CallExpr)
	if !ok {
		return nil, 0
	}
	for i, arg := range call.Args {
		if arg == ast.Expr(lit) {
			return call, i + 1
		}
	}
	return nil, 0
}

// verbOrdinal counts which %-verb (0-based, %% excluded) sits at byte
// offset pos of the format string, or -1.
func verbOrdinal(format string, pos int) int {
	ord := -1
	for i := 0; i < len(format)-1; i++ {
		if format[i] != '%' {
			continue
		}
		if format[i+1] == '%' {
			i++
			continue
		}
		// Skip flags, width, precision to the verb character.
		j := i + 1
		for j < len(format) && strings.ContainsRune("+-# 0123456789.*", rune(format[j])) {
			j++
		}
		ord++
		if i == pos {
			return ord
		}
		i = j
	}
	return -1
}
