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

// ProfileOptions tunes the opt-in continuous-profiling sampler.
type ProfileOptions struct {
	// Enable turns the sampler on (off by default: profiling costs the
	// profiled process CPU).
	Enable bool
	// Dir is where captured profiles land (required when enabled).
	Dir string
	// CPUSeconds is the length of each CPU profile (default 5).
	CPUSeconds int
	// Keep bounds on-disk retention: at most Keep profiles per kind
	// (cpu, heap) are kept, oldest deleted first (default 32).
	Keep int
}

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
	client *http.Client
	opts   ProfileOptions
	logger *slog.Logger

	captured *telemetry.Counter
	failures *telemetry.Counter

	mu   sync.Mutex
	next int
}

func newProfiler(client *http.Client, opts Options) (*profiler, error) {
	po := opts.Profiles
	if po.Dir == "" {
		return nil, fmt.Errorf("obscollector: profiling enabled without a directory")
	}
	if err := os.MkdirAll(po.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("obscollector: profile dir: %w", err)
	}
	if po.CPUSeconds <= 0 {
		po.CPUSeconds = 5
	}
	if po.Keep <= 0 {
		po.Keep = 32
	}
	return &profiler{
		client:   client,
		opts:     po,
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

	ctx, cancel := context.WithTimeout(ctx,
		time.Duration(p.opts.CPUSeconds)*time.Second+10*time.Second)
	defer cancel()
	now := time.Now().UTC()
	for kind, url := range map[string]string{
		"cpu":  fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", t.BaseURL, p.opts.CPUSeconds),
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
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	name := fmt.Sprintf("%s-%s-%s.pprof", now.Format("20060102T150405"), sanitize(t.Identity.Instance), kind)
	f, err := os.CreateTemp(p.opts.Dir, name+".tmp")
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
	return os.Rename(f.Name(), filepath.Join(p.opts.Dir, name))
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

// prune enforces Keep per kind, deleting oldest first (filenames sort
// chronologically by construction).
func (p *profiler) prune() {
	byKind := map[string][]string{}
	for _, pi := range p.index() {
		byKind[pi.Kind] = append(byKind[pi.Kind], pi.File)
	}
	for _, files := range byKind {
		sort.Strings(files)
		for len(files) > p.opts.Keep {
			os.Remove(filepath.Join(p.opts.Dir, files[0]))
			files = files[1:]
		}
	}
}

// index lists the retained profiles.
func (p *profiler) index() []ProfileInfo {
	entries, err := os.ReadDir(p.opts.Dir)
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
