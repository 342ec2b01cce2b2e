package repro

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestMergeProperties drives MergeResults — the one function behind the
// final merge, the streamed partial merges and the cluster router's
// merge — with seeded random worlds: random selections (with tied and
// zero scores, so every level of the tie-break decides somewhere),
// random per-database result lists, databases assigned to 1–4 shards
// with replication 1–3, and fan-out completions in random order. It
// asserts the two properties the serving path promises:
//
//   - cluster ≡ single process: merging the shards' rankings gives
//     exactly the ranking one process computes over all the databases,
//     and drops exactly the replicated copies;
//   - every partial merge is prefix-consistent: it is the final ranking
//     restricted to the databases completed so far — same hits, same
//     relative order — so a streamed merge_update never shows a hit the
//     final answer lacks or an order the final answer reverses.
//
// A failure prints its seed; rerun that world with -run and the seed
// fixed in the loop below.
func TestMergeProperties(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		if msg := mergeWorld(rand.New(rand.NewSource(seed))); msg != "" {
			t.Fatalf("seed %d: %s", seed, msg)
		}
	}
}

func mergeWorld(rng *rand.Rand) string {
	// The selection: 1–8 databases, scores drawn from a small set so ties
	// (and an occasional all-zero score) happen.
	nDB := 1 + rng.Intn(8)
	sels := make([]Selection, nDB)
	lists := make([][]int, nDB)
	for i := range sels {
		sels[i] = Selection{Database: fmt.Sprintf("db-%c", 'a'+rng.Intn(26)) + fmt.Sprint(i), Score: float64(rng.Intn(4)) / 4}
		for _, id := range rng.Perm(12)[:rng.Intn(7)] {
			lists[i] = append(lists[i], id)
		}
	}
	maxScore := 0.0
	for _, s := range sels {
		maxScore = max(maxScore, s.Score)
	}
	if maxScore <= 0 {
		maxScore = 1
	}
	// ranking is what one process computes over the databases in have:
	// the fan-out slots of the others are not ok (out of scope, or not
	// completed yet).
	ranking := func(have func(db int) bool) []Result {
		outcomes := make([]nodeOutcome, nDB)
		for i := range outcomes {
			if have(i) {
				outcomes[i] = nodeOutcome{ids: lists[i], ok: true}
			}
		}
		return scoreOutcomes(sels, maxScore, outcomes)
	}
	single := ranking(func(int) bool { return true })
	for i := 1; i < len(single); i++ {
		a, b := single[i-1], single[i]
		if !(a.Score > b.Score || a.Score == b.Score && (a.Database < b.Database || a.Database == b.Database && a.DocID < b.DocID)) {
			return fmt.Sprintf("ranking out of order (score desc, database, doc id) at %d: %v then %v", i, a, b)
		}
	}

	// The cluster: every database on `replication` distinct shards.
	nShards := 1 + rng.Intn(4)
	replication := 1 + rng.Intn(min(3, nShards))
	owns := make([]map[int]bool, nShards)
	for s := range owns {
		owns[s] = map[int]bool{}
	}
	wantDropped := 0
	for db := range sels {
		for _, s := range rng.Perm(nShards)[:replication] {
			owns[s][db] = true
		}
		wantDropped += (replication - 1) * len(lists[db])
	}
	var all []Result
	for _, s := range rng.Perm(nShards) {
		all = append(all, ranking(func(db int) bool { return owns[s][db] })...)
	}
	cluster, dropped := MergeResults(all)
	if !sameRanking(cluster, single) {
		return fmt.Sprintf("cluster merge differs from the single-process merge:\n got %v\nwant %v", cluster, single)
	}
	if dropped != wantDropped {
		return fmt.Sprintf("dropped %d replicated hits, want %d", dropped, wantDropped)
	}

	// Streaming: (shard, database) completions arrive in random order;
	// after each, the cluster partial is the merge of the shards' own
	// partial rankings.
	type completion struct{ shard, db int }
	var order []completion
	for s := range owns {
		for db := range owns[s] {
			order = append(order, completion{s, db})
		}
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	done := make([]map[int]bool, nShards)
	for s := range done {
		done[s] = map[int]bool{}
	}
	anyDone := map[int]bool{}
	var partial []Result
	for _, c := range order {
		done[c.shard][c.db] = true
		anyDone[c.db] = true
		all = all[:0]
		for s := range done {
			all = append(all, ranking(func(db int) bool { return done[s][db] })...)
		}
		partial, _ = MergeResults(all)
		if want := ranking(func(db int) bool { return anyDone[db] }); !sameRanking(partial, want) {
			return fmt.Sprintf("partial merge after %v is not the final restricted to the completed databases:\n got %v\nwant %v", c, partial, want)
		}
		next := 0 // partial must be a subsequence of single
		for _, h := range partial {
			for next < len(single) && single[next] != h {
				next++
			}
			if next == len(single) {
				return fmt.Sprintf("partial merge after %v is not order-consistent with the final:\npartial %v\n  final %v", c, partial, single)
			}
			next++
		}
	}
	if !sameRanking(partial, single) {
		return fmt.Sprintf("last partial merge differs from the final:\n got %v\nwant %v", partial, single)
	}
	return ""
}

// sameRanking compares rankings, a nil and an empty one being equal.
func sameRanking(a, b []Result) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}
