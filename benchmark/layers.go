package main

import (
	"bytes"
	"context"
	"strconv"
	"time"

	"repro"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/freqest"
	"repro/internal/sampling"
	"repro/internal/selection"
	"repro/internal/summary"
	"repro/internal/textproc"
)

// Direct calls into each layer's public functions ("D" metrics). They
// are the only place the benchmark reaches below the serving
// interfaces, so a change that reshapes one of these packages edits
// this file and nothing else here.

// layerSummaries builds the experiments package's own per-database
// summaries (QBS + frequency estimation + shrinkage) over the world:
// the public handle on what Metasearcher keeps private.
func layerSummaries(wd *world) (*experiments.DBSummaries, error) {
	return wd.exp.BuildSummaries(experiments.Config{Sampler: experiments.QBS, FreqEst: true})
}

// drillSelectionLayers times the three base scorers and the two summary
// lookups every scorer call and every Monte-Carlo draw bottoms out in.
func drillSelectionLayers(rc *runCtx, wd *world) error {
	sums, err := layerSummaries(wd)
	if err != nil {
		return err
	}
	entries := make([]selection.Entry, len(sums.Unshrunk))
	for i, s := range sums.Unshrunk {
		entries[i] = selection.Entry{Name: wd.dbs[i].name, View: s}
	}
	global := sums.GlobalSummary()
	// The experiments pipeline works in the unsanitized term space.
	var queries [][]string
	var words []string
	for i := range wd.hot {
		q := wd.exp.Bed.Queries[i].Terms
		queries = append(queries, q)
		words = append(words, q...)
	}
	ctxs := make([]*selection.Context, len(queries))
	for i, q := range queries {
		ctxs[i] = selection.NewContext(q, entries, global)
	}
	scored := len(queries) * len(entries)
	for _, sc := range []struct {
		metric string
		scorer selection.Scorer
	}{
		{"selection.score_cori_ns_per_db", selection.CORI{}},
		{"selection.score_bgloss_ns_per_db", selection.BGloss{}},
		{"selection.score_lm_ns_per_db", selection.LM{}},
	} {
		rc.set(sc.metric, nsPerOp(scored, func() {
			for i, q := range queries {
				selection.Rank(sc.scorer, q, entries, ctxs[i])
			}
		}))
	}

	var p float64
	lookups := len(words) * len(sums.Unshrunk)
	rc.set("summary.lookup_ns", nsPerOp(lookups, func() {
		for _, s := range sums.Unshrunk {
			for _, w := range words {
				p += s.P(w)
			}
		}
	}))
	rc.set("core.shrunk_lookup_ns", nsPerOp(lookups, func() {
		for _, s := range sums.Shrunk {
			for _, w := range words {
				p += s.P(w)
			}
		}
	}))
	sink += p
	return nil
}

// drillBuildLayers times the pieces of the offline pipeline that have a
// public entry point of their own: EM shrinkage, the summary codec, and
// the frequency-estimation fit.
func drillBuildLayers(rc *runCtx, wd *world) error {
	sums, err := layerSummaries(wd)
	if err != nil {
		return err
	}
	classified := sums.Classified(wd.exp)
	n := len(classified)
	rc.set("core.shrink_ms_per_db", nsPerOp(n, func() {
		for _, db := range classified {
			core.Shrink(sums.Cats, db, core.ShrinkOptions{})
		}
	})/1e6)

	var encoded [][]byte
	var bytesTotal int
	for _, s := range sums.Unshrunk {
		var buf bytes.Buffer
		if err := s.Encode(&buf); err != nil {
			return err
		}
		encoded = append(encoded, buf.Bytes())
		bytesTotal += buf.Len()
	}
	mb := float64(bytesTotal) / (1 << 20)
	encNs := nsPerOp(1, func() {
		var buf bytes.Buffer
		for _, s := range sums.Unshrunk {
			buf.Reset()
			s.Encode(&buf)
		}
	})
	rc.set("summary.encode_mb_per_s", mb/(encNs/1e9))
	var decodeErr error
	decNs := nsPerOp(1, func() {
		for _, b := range encoded {
			if _, err := summary.Decode(bytes.NewReader(b)); err != nil {
				decodeErr = err
			}
		}
	})
	if decodeErr != nil {
		return decodeErr
	}
	rc.set("summary.decode_mb_per_s", mb/(decNs/1e9))

	// One real sample to refine: the fit is per database.
	db := wd.exp.Bed.Databases[0]
	sample, err := sampling.QBS(context.Background(), sampling.IndexSearcher{Ix: db.Index}, sampling.QBSConfig{
		TargetDocs:  wd.exp.Scale.SampleTarget,
		SeedLexicon: wd.exp.Lexicon,
		Seed:        1,
	})
	if err != nil {
		return err
	}
	base := summary.FromSample(sample.Docs)
	var fitErr error
	rc.set("freqest.fit_us", nsPerOp(1, func() {
		if _, err := freqest.Refine(base, sample); err != nil {
			fitErr = err
		}
	})/1e3)
	return fitErr
}

// drillTextproc times query analysis under the serving configuration.
func drillTextproc(rc *runCtx, wd *world) {
	opt := textproc.Options{MinLength: 2} // KeepStopwords, NoStemming
	rc.set("textproc.analyze_us", nsPerOp(len(wd.hot), func() {
		for _, q := range wd.hot {
			textproc.Analyze(q, opt)
		}
	})/1e3)
}

// drillCacheHit times Cache.Do on a resident key: the whole of what the
// result tier adds to a warm request.
func drillCacheHit(rc *runCtx) {
	c := cache.New(cache.Options{Capacity: 1024})
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = "resident-" + strconv.Itoa(i)
		c.Put(keys[i], i)
	}
	ctx := context.Background()
	load := func() (interface{}, error) { return nil, nil }
	rc.set("cache.do_hit_ns", nsPerOp(len(keys), func() {
		for _, k := range keys {
			c.Do(ctx, k, load)
		}
	}))
}

// drillCachePut times Put into a full cache from a key stream four
// times its capacity: every insert evicts, which is what the result
// tier does on every cluster_fanout request.
func drillCachePut(rc *runCtx) {
	const capacity = 1024
	c := cache.New(cache.Options{Capacity: capacity})
	keys := make([]string, 4*capacity)
	for i := range keys {
		keys[i] = "stream-" + strconv.Itoa(i)
	}
	rc.set("cache.put_evict_ns", nsPerOp(len(keys), func() {
		for i, k := range keys {
			c.Put(k, i)
		}
	}))
}

// drillTelemetry compares the in-process hit path of the production
// configuration (ring observer, audit ring) with the same state under
// no observer and no audit log. Building is deterministic, so a second
// metasearcher built the same way holds the same summaries.
func drillTelemetry(rc *runCtx, wd *world, locals []*repro.LocalDatabase, full *repro.Metasearcher, k, perDB int) error {
	opts := wd.options(repro.CacheConfig{Size: 1024, TTL: -1, ResultTTL: -1})
	opts.Observer = nil
	opts.AuditSize = -1
	bare := repro.New(opts)
	if err := wd.register(bare, nil, locals); err != nil {
		return err
	}
	if err := bare.BuildSummaries(); err != nil {
		return err
	}
	warm := wd.hot
	if len(warm) > 16 {
		warm = warm[:16]
	}
	ctx := context.Background()
	for _, q := range warm {
		if _, err := bare.SearchExplained(ctx, q, k, perDB); err != nil {
			return err
		}
	}
	hitUs := func(m *repro.Metasearcher) float64 {
		var lats []float64
		for round := 0; round < 200; round++ {
			for _, q := range warm {
				t0 := time.Now()
				m.SearchExplained(ctx, q, k, perDB)
				lats = append(lats, float64(time.Since(t0).Nanoseconds())/1e3)
			}
		}
		return median(lats)
	}
	// Interleave so a machine-speed change hits both sides alike.
	var fullUs, bareUs []float64
	for i := 0; i < 5; i++ {
		fullUs = append(fullUs, hitUs(full))
		bareUs = append(bareUs, hitUs(bare))
	}
	if b := median(bareUs); b > 0 {
		rc.set("telemetry.overhead_ratio", median(fullUs)/b)
	}
	return nil
}
