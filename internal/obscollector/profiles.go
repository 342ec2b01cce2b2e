package obscollector

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// The sampler's fixed settings: each CPU profile lasts cpuSeconds, and
// at most keepProfiles profiles per kind (cpu, heap) stay on disk,
// oldest deleted first.
const (
	cpuSeconds   = 5
	keepProfiles = 32
)

// ProfileInfo is one retained profile in the /debug/cluster/profiles
// index.
type ProfileInfo struct {
	File     string    `json:"file"`
	Instance string    `json:"instance"`
	Kind     string    `json:"kind"` // "cpu" or "heap"
	Size     int64     `json:"size"`
	Time     time.Time `json:"time"`
}

// profiler rotates through the fleet capturing pprof profiles, one
// member per Collector.ProfileOnce step, so the whole fleet is covered
// every len(targets) steps.
type profiler struct {
	dir    string
	keep   int
	logger *slog.Logger

	captured *telemetry.Counter
	failures *telemetry.Counter

	mu   sync.Mutex
	next int
}

func newProfiler(opts Options) (*profiler, error) {
	if err := os.MkdirAll(opts.ProfileDir, 0o755); err != nil {
		return nil, fmt.Errorf("obscollector: profile dir: %w", err)
	}
	return &profiler{
		dir:      opts.ProfileDir,
		keep:     keepProfiles,
		logger:   opts.Logger,
		captured: opts.Metrics.DeclareCounter("collector_profiles_total", "pprof profiles captured by the continuous-profiling sampler."),
		failures: opts.Metrics.DeclareCounter("collector_profile_errors_total", "pprof profile captures that failed."),
	}, nil
}

// captureNext profiles the next of targets in rotation: one CPU profile
// and one heap snapshot, then prunes retention.
func (p *profiler) captureNext(ctx context.Context, targets []Target) {
	if len(targets) == 0 {
		return
	}
	p.mu.Lock()
	t := targets[p.next%len(targets)]
	p.next++
	p.mu.Unlock()

	ctx, cancel := context.WithTimeout(ctx, (cpuSeconds+10)*time.Second)
	defer cancel()
	now := time.Now().UTC()
	for kind, url := range map[string]string{
		"cpu":  fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", t.BaseURL, cpuSeconds),
		"heap": t.BaseURL + "/debug/pprof/heap",
	} {
		if err := p.captureOne(ctx, kind, url, t, now); err != nil {
			p.failures.Inc()
			if p.logger != nil {
				p.logger.Warn("profile capture failed", "instance", t.Identity.Instance, "kind", kind, "err", err)
			}
			continue
		}
		p.captured.Inc()
	}
	p.prune()
}

func (p *profiler) captureOne(ctx context.Context, kind, url string, t Target, now time.Time) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	name := fmt.Sprintf("%s-%s-%s.pprof", now.Format("20060102T150405"), sanitize(t.Identity.Instance), kind)
	f, err := os.CreateTemp(p.dir, name+".tmp")
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, io.LimitReader(resp.Body, 256<<20)); err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return err
	}
	return os.Rename(f.Name(), filepath.Join(p.dir, name))
}

// sanitize maps an instance name to a safe filename fragment.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		default:
			return '_'
		}
	}, s)
}

// prune enforces keep per kind, deleting oldest first (filenames sort
// chronologically by construction).
func (p *profiler) prune() {
	byKind := map[string][]string{}
	for _, pi := range p.index() {
		byKind[pi.Kind] = append(byKind[pi.Kind], pi.File)
	}
	for _, files := range byKind {
		sort.Strings(files)
		for len(files) > p.keep {
			os.Remove(filepath.Join(p.dir, files[0]))
			files = files[1:]
		}
	}
}

// index lists the retained profiles.
func (p *profiler) index() []ProfileInfo {
	entries, err := os.ReadDir(p.dir)
	if err != nil {
		return nil
	}
	var out []ProfileInfo
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".pprof") {
			continue
		}
		// <stamp>-<instance>-<kind>.pprof; the instance may itself
		// contain dashes, so split at the first and last one.
		base := strings.TrimSuffix(name, ".pprof")
		i := strings.Index(base, "-")
		j := strings.LastIndex(base, "-")
		if i < 0 || j <= i {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		ts, _ := time.Parse("20060102T150405", base[:i])
		out = append(out, ProfileInfo{
			File:     name,
			Instance: base[i+1 : j],
			Kind:     base[j+1:],
			Size:     info.Size(),
			Time:     ts,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].File > out[j].File })
	return out
}
