package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// setup brings a daemon up p.setups times, each over a fresh data
// directory that prepare fills (untimed), and times each set-up from exec
// to the end of warm. All but the last daemon are killed and their
// directories removed; the last is returned for the timed phases.
func (b *bench) setup(p *pass, role string, flags []string, prepare func(dir string) error, warm func() error) (*daemon, string, error) {
	var d *daemon
	var dir string
	b.mark("prepare")
	p.calibrate()
	for r := 0; r < p.setups; r++ {
		if d != nil {
			if err := d.kill(); err != nil {
				return nil, "", err
			}
			p.noteExit(d)
			b.resetConns()
			os.RemoveAll(dir)
		}
		var err error
		dir, err = os.MkdirTemp(b.runDir, role+"-")
		if err != nil {
			return nil, "", err
		}
		if prepare != nil {
			if err := prepare(dir); err != nil {
				return nil, "", err
			}
		}
		start := time.Now()
		if d, err = b.startDaemon(p, role, dir, flags...); err != nil {
			return nil, "", err
		}
		if _, err := b.waitReady(d, start); err != nil {
			return nil, "", err
		}
		if err := warm(); err != nil {
			return nil, "", fmt.Errorf("%s warm-up: %w", role, err)
		}
		p.setupWall = append(p.setupWall, time.Since(start).Seconds())
		p.setupCPU = append(p.setupCPU, d.cpuSeconds())
	}
	b.mark("setup")
	return d, dir, nil
}

// restarts stops d with stop (SIGKILL or SIGTERM) and starts a daemon
// over the same data directory, p.restarts times, timing each from exec
// to /readyz 200 in tbsd CPU time and in wall time. Traced passes also
// record how many streams the first restarted daemon holds in memory at
// that point.
func (b *bench) restarts(p *pass, d *daemon, role, dir string, flags []string, stop func(*daemon) error) (*daemon, error) {
	defer b.mark("restarts")
	if p.traced {
		// The layer calls replay and scan a copy of this WAL; the timed
		// phase before the restart has ended, so the log is quiescent.
		b.runWAL = filepath.Join(b.runDir, "run-wal")
		os.RemoveAll(b.runWAL)
		if err := copyDir(filepath.Join(dir, "wal"), b.runWAL); err != nil {
			return nil, err
		}
	}
	for r := 0; r < p.restarts; r++ {
		if r > 0 {
			time.Sleep(settle)
		}
		if err := stop(d); err != nil {
			return nil, err
		}
		p.noteExit(d)
		b.resetConns()
		start := time.Now()
		var err error
		if d, err = b.startDaemon(p, role, dir, flags...); err != nil {
			return nil, err
		}
		t, err := b.waitReady(d, start)
		if err != nil {
			return nil, err
		}
		p.recoveryCPU = append(p.recoveryCPU, d.cpuSeconds())
		p.recoveryWall = append(p.recoveryWall, t.Seconds())
		if p.traced && r == 0 {
			m, err := b.scrape()
			if err != nil {
				return nil, err
			}
			p.residentAtReady = m["tbsd_streams_resident"]
		}
	}
	return d, nil
}

// finish stops the pass's last daemon gracefully and removes its data.
func (b *bench) finish(p *pass, d *daemon, dir string) error {
	b.mark("checks")
	defer b.mark("stop")
	p.calibrate()
	time.Sleep(settle)
	err := d.term()
	p.noteExit(d)
	b.resetConns()
	os.RemoveAll(dir)
	os.Remove(dir + ".log")
	return err
}

// copyDir copies a flat directory of regular files (a checkpoint
// directory) without fsync: the copy is scratch data for one daemon.
func copyDir(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
