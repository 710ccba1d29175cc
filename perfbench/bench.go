package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// maxConns is the generator's connection budget: one per CPU of the 2-core
// box the benchmark was sized on.
const maxConns = 2

// bench is the state of one benchmark run.
type bench struct {
	cfg     config
	runDir  string // fresh per run, removed by close
	port    int
	lanes   [maxConns]*lane
	spans   *spanLog
	flags   map[string][]string // tbsd flags per daemon role, for provenance
	report  []string            // report lines printed before the result
	layers  map[string]layerRow // per-layer rows, traced runs only
	checks  []string            // failed correctness checks
	checkMu sync.Mutex
	live    map[*daemon]bool
	liveMu  sync.Mutex

	crossChecks []crossCheck
	tracedPass  *pass   // the traced pass, for rows that combine it with layer calls
	cur         *daemon // the daemon the workload is driving
	runWAL      string  // copy of the traced pass's WAL before its restart

	lastMark time.Time
	phases   []string // wall time per phase, for the report
}

// mark closes the current phase of the run under name and starts the
// next; the report lists where a run's wall time went.
func (b *bench) mark(name string) {
	now := time.Now()
	b.phases = append(b.phases, fmt.Sprintf("%s=%.1fs", name, now.Sub(b.lastMark).Seconds()))
	b.lastMark = now
}

// stderr receives diagnostics; results go to standard output.
var stderr io.Writer = os.Stderr

// layerRow is one per-layer number with its base: the count of calls,
// items or events the value was computed from.
type layerRow struct {
	value float64
	unit  string
	base  string
}

func newBench(cfg config) (*bench, error) {
	if err := os.MkdirAll(filepath.Join(cfg.workdir, "runs"), 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(filepath.Join(cfg.workdir, "runs"), cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		os.RemoveAll(runDir)
		return nil, err
	}
	b := &bench{
		cfg:    cfg,
		runDir: runDir,
		port:   port,
		spans:  newSpanLog(cfg.trace),
		flags:  map[string][]string{},
		layers: map[string]layerRow{},
		live:   map[*daemon]bool{},
	}
	for i := range b.lanes {
		b.lanes[i] = newLane()
	}
	b.lastMark = time.Now()
	return b, nil
}

// close stops every daemon still running, waits for each, and removes
// the run's data directory.
func (b *bench) close() {
	b.liveMu.Lock()
	ds := make([]*daemon, 0, len(b.live))
	for d := range b.live {
		ds = append(ds, d)
	}
	b.liveMu.Unlock()
	for _, d := range ds {
		_ = d.kill()
	}
	for _, l := range b.lanes {
		l.tr.CloseIdleConnections()
	}
	os.RemoveAll(b.runDir)
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (b *bench) url(path string) string {
	return "http://127.0.0.1:" + strconv.Itoa(b.port) + path
}

func (b *bench) reportf(format string, args ...any) {
	b.report = append(b.report, fmt.Sprintf(format, args...))
}

func (b *bench) checkf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.checkMu.Lock()
	b.checks = append(b.checks, msg)
	b.checkMu.Unlock()
	fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
}

// printEnv records the run's provenance.
func (b *bench) printEnv() {
	b.reportf("# perfbench workload=%s seed=%d seconds=%g trace=%v", b.cfg.workload, b.cfg.seed, b.cfg.seconds, b.cfg.trace)
	sum, err := fileHash(b.cfg.tbsd)
	if err != nil {
		sum = "unknown"
	}
	b.reportf("# env go=%s goos=%s goarch=%s gomaxprocs=%d nproc=%d cpu=%q commit=%s tbsd_sha256=%s",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), b.cfg.commit, sum)
}

// fileHash identifies a build: the first 16 hex digits of the file's
// SHA-256.
func fileHash(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// ---- daemon -------------------------------------------------------------

// daemon is one tbsd child process.
type daemon struct {
	cmd    *exec.Cmd
	done   chan struct{} // closed once Wait returned
	err    error
	rssKB  int64 // ru_maxrss (the process's VmHWM) once exited
	logPth string
}

// startDaemon execs tbsd over dataDir with the pass's tracing setting plus
// the workload's flags; role names the flag set in the provenance report.
func (b *bench) startDaemon(p *pass, role, dataDir string, extra ...string) (*daemon, error) {
	args := []string{
		"-addr", "127.0.0.1:" + strconv.Itoa(b.port),
		"-checkpoint-dir", dataDir,
		"-seed", strconv.FormatUint(b.cfg.seed, 10),
		"-log-level", "warn",
	}
	if !p.traced {
		args = append(args, "-trace-ring", "0")
	}
	args = append(args, extra...)
	key := role
	if p.traced {
		key += "/traced"
	}
	if _, ok := b.flags[key]; !ok {
		b.flags[key] = args
		b.reportf("# tbsd %s flags: %s", key, strings.Join(args, " "))
	}
	logPath := dataDir + ".log"
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(b.cfg.tbsd, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start tbsd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{}), logPth: logPath}
	b.cur = d
	b.liveMu.Lock()
	b.live[d] = true
	b.liveMu.Unlock()
	go func() {
		d.err = cmd.Wait()
		logf.Close()
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			d.rssKB = ru.Maxrss
		}
		b.liveMu.Lock()
		delete(b.live, d)
		b.liveMu.Unlock()
		close(d.done)
	}()
	return d, nil
}

// waitReady polls /readyz until the daemon answers 200 and returns the
// time since start.
func (b *bench) waitReady(d *daemon, start time.Time) (time.Duration, error) {
	l := b.lanes[0]
	deadline := start.Add(90 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return 0, fmt.Errorf("tbsd exited before ready: %v\n%s", d.err, tail(d.logPth))
		default:
		}
		if st, _, err := l.do(http.MethodGet, b.url("/readyz"), "", nil); err == nil && st == http.StatusOK {
			return time.Since(start), nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return 0, fmt.Errorf("tbsd not ready after 90s\n%s", tail(d.logPth))
}

func tail(path string) string {
	data, _ := os.ReadFile(path)
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(data)
}

// kill sends SIGKILL and waits for the process to end.
func (d *daemon) kill() error {
	select {
	case <-d.done:
		return nil
	default:
	}
	if err := d.cmd.Process.Signal(syscall.SIGKILL); err != nil && !isDone(d) {
		return err
	}
	<-d.done
	return nil
}

// term sends SIGTERM and waits for the graceful shutdown (final
// checkpoint); a daemon that does not exit in time is killed and the
// shutdown reported as failed.
func (d *daemon) term() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !isDone(d) {
		return err
	}
	select {
	case <-d.done:
		if d.err != nil {
			return fmt.Errorf("tbsd shutdown: %v\n%s", d.err, tail(d.logPth))
		}
		return nil
	case <-time.After(60 * time.Second):
		_ = d.kill()
		return fmt.Errorf("tbsd did not stop within 60s of SIGTERM")
	}
}

// cpuSeconds is the daemon's CPU time so far (user+system, all threads),
// summed from each thread's schedstat in nanoseconds.
func (d *daemon) cpuSeconds() float64 {
	dir := fmt.Sprintf("/proc/%d/task", d.cmd.Process.Pid)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return math.NaN()
	}
	total := 0.0
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited
		}
		if f := strings.Fields(string(data)); len(f) > 0 {
			ns, _ := strconv.ParseFloat(f[0], 64)
			total += ns / 1e9
		}
	}
	return total
}

// cpuTicks reads the machine-wide CPU time counters from /proc/stat:
// steal (time the hypervisor ran someone else) and the total.
func cpuTicks() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealMeter measures the share of CPU time the hypervisor stole over an
// interval; the report prints it beside wall-clock numbers.
type stealMeter struct{ steal, total float64 }

func startSteal() stealMeter {
	s, t := cpuTicks()
	return stealMeter{s, t}
}

func (m stealMeter) pct() float64 {
	s, t := cpuTicks()
	if t <= m.total {
		return 0
	}
	return 100 * (s - m.steal) / (t - m.total)
}

func isDone(d *daemon) bool {
	select {
	case <-d.done:
		return true
	default:
		return false
	}
}

// ---- connections --------------------------------------------------------

// lane is one client connection. Every request on a lane is sent by one
// goroutine at a time, so a lane never opens a second connection, and the
// keys pinned to a lane see their requests in generation order.
type lane struct {
	tr  *http.Transport
	c   *http.Client
	buf bytes.Buffer
}

func newLane() *lane {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &lane{tr: tr, c: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

// do sends one request and reads the whole response. The returned body
// is valid until the lane's next call.
func (l *lane) do(method, url, ctype string, body []byte) (int, []byte, error) {
	var rd io.Reader = http.NoBody
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := l.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	l.buf.Reset()
	_, err = l.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, l.buf.Bytes(), err
}

// doOK is do for set-up and check requests, where anything but 200 is an
// error.
func (l *lane) doOK(method, url, ctype string, body []byte) ([]byte, error) {
	st, resp, err := l.do(method, url, ctype, body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, url, err)
	}
	if st != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, st, resp)
	}
	return resp, nil
}

// eachLane runs fn once per lane concurrently and joins the errors.
func (b *bench) eachLane(fn func(ln int, l *lane) error) error {
	errs := make([]error, maxConns)
	done := make(chan struct{}, maxConns) // one send per lane
	for ln := range b.lanes {
		go func(ln int) {
			errs[ln] = fn(ln, b.lanes[ln])
			done <- struct{}{}
		}(ln)
	}
	for range b.lanes {
		<-done
	}
	return errors.Join(errs...)
}

// scrapeIf scrapes /metrics on traced passes only.
func (b *bench) scrapeIf(p *pass) (promSnap, error) {
	if !p.traced {
		return nil, nil
	}
	return b.scrape()
}

// scrapeDelta folds the change since before into a traced pass.
func (b *bench) scrapeDelta(p *pass, before promSnap) error {
	if !p.traced {
		return nil
	}
	after, err := b.scrape()
	if err != nil {
		return err
	}
	p.addDelta(before, after)
	return nil
}

// resetConns drops idle connections, after a daemon exits.
func (b *bench) resetConns() {
	for _, l := range b.lanes {
		l.tr.CloseIdleConnections()
	}
}

// ---- /metrics -----------------------------------------------------------

// promSnap is one /metrics scrape: series (name plus label set, exactly as
// rendered) to value.
type promSnap map[string]float64

func (b *bench) scrape() (promSnap, error) {
	body, err := b.lanes[0].doOK(http.MethodGet, b.url("/metrics"), "", nil)
	if err != nil {
		return nil, err
	}
	m := promSnap{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m, nil
}

// family folds every series of one metric name (any labels) with fn.
func (m promSnap) family(name string, fn func(acc, v float64) float64) float64 {
	acc := 0.0
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			acc = fn(acc, v)
		}
	}
	return acc
}

func (m promSnap) sum(name string) float64 {
	return m.family(name, func(a, v float64) float64 { return a + v })
}

func (m promSnap) max(name string) float64 {
	return m.family(name, math.Max)
}

// ---- latency samples ----------------------------------------------------

// samples is one latency class of an open loop, in milliseconds.
type samples []float64

// quantile is the nearest-rank quantile of the samples.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	i := int(math.Ceil(q*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	return c[i]
}

// beyond is how many samples lie above the q-quantile's rank.
func (s samples) beyond(q float64) int {
	return len(s) - int(math.Ceil(q*float64(len(s))))
}

// ---- spans --------------------------------------------------------------

// span is one timed interval recorded by the benchmark itself: a phase,
// a client request, or a batch of isolated layer calls.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A disabled log (the
// untraced runs) records nothing.
type spanLog struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newSpanLog(on bool) *spanLog { return &spanLog{on: on, t0: time.Now()} }

// id reserves a span ID, so a parent's children can name it before the
// parent ends.
func (s *spanLog) id() int64 {
	if !s.on {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	return s.next
}

// add records a finished span under a reserved (or zero, for a fresh) ID.
func (s *spanLog) add(id, parent int64, name string, start, end time.Time) {
	if !s.on {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if id == 0 {
		s.next++
		id = s.next
	}
	s.spans = append(s.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(s.t0).Nanoseconds(), End: end.Sub(s.t0).Nanoseconds()})
}

func (s *spanLog) write(path string) error {
	if !s.on {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "[\n")
	for i, sp := range s.spans {
		sep := ","
		if i == len(s.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "{\"id\":%d,\"parent\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}%s\n",
			sp.ID, sp.Parent, sp.Name, sp.Start, sp.End, sep)
	}
	fmt.Fprintf(w, "]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
