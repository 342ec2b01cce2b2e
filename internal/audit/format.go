package audit

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
)

// Format pretty-prints the record as an indented, human-readable
// explanation of the selection decision — what the -explain flag shows
// after each interactive query.
func (r *QueryRecord) Format(w io.Writer) {
	if r == nil {
		fmt.Fprintln(w, "no query record")
		return
	}
	fmt.Fprintf(w, "query #%d %q", r.ID, r.Query)
	if r.TraceID != "" {
		fmt.Fprintf(w, "  trace=%s", r.TraceID)
	}
	fmt.Fprintf(w, "  (%.1fms)\n", r.ElapsedSeconds*1e3)
	if r.Error != "" {
		fmt.Fprintf(w, "  error: %s\n", r.Error)
	}
	if r.CacheHit || r.SelectionCacheHit || r.Collapsed {
		var marks []string
		if r.CacheHit {
			marks = append(marks, "RESULT-HIT")
		}
		if r.SelectionCacheHit {
			marks = append(marks, "SELECTION-HIT")
		}
		if r.Collapsed {
			marks = append(marks, "COLLAPSED")
		}
		fmt.Fprintf(w, "  cache: %s\n", strings.Join(marks, " "))
	}
	if len(r.Terms) > 0 {
		fmt.Fprintf(w, "  terms: %s\n", strings.Join(r.Terms, " "))
	}
	if r.Scorer != "" {
		fmt.Fprintf(w, "  scorer: %s  (max_dbs=%d per_db=%d)\n", r.Scorer, r.MaxDBs, r.PerDB)
	}
	if len(r.Candidates) > 0 {
		fmt.Fprintf(w, "  selection (%d candidates, shrinkage fired for %d):\n",
			len(r.Candidates), r.ShrinkageCount())
		for _, c := range r.Candidates {
			mark := " "
			if c.Selected {
				mark = "*"
			}
			fmt.Fprintf(w, "   %s %-24s score=%-12.6g mean=%.6g sd=%.6g",
				mark, c.Database, c.Score, c.ScoreMean, c.ScoreStdDev)
			if c.Shrinkage {
				fmt.Fprintf(w, "  SHRUNK %s", formatLambdas(c.Lambdas))
				if c.Category != "" {
					fmt.Fprintf(w, " along %s", c.Category)
				}
			} else {
				fmt.Fprint(w, "  unshrunk")
			}
			fmt.Fprintln(w)
		}
	}
	if len(r.Nodes) > 0 {
		fmt.Fprintln(w, "  nodes:")
		for _, n := range r.Nodes {
			fmt.Fprintf(w, "    %-24s %7.1fms  results=%d", n.Database, n.LatencySeconds*1e3, n.Results)
			if n.Attempts > 0 {
				fmt.Fprintf(w, "  attempts=%d retries=%d", n.Attempts, n.Retries)
			}
			if n.Sheds > 0 {
				fmt.Fprintf(w, "  sheds=%d", n.Sheds)
			}
			if n.Hedged {
				fmt.Fprint(w, "  HEDGED")
				if n.HedgeWon {
					fmt.Fprint(w, "(won)")
				}
			}
			if n.BreakerState != "" && n.BreakerState != "closed" {
				fmt.Fprintf(w, "  breaker=%s", n.BreakerState)
			}
			if n.BreakerOpen {
				fmt.Fprint(w, "  BREAKER-OPEN")
			} else if n.OutOfScope {
				fmt.Fprint(w, "  OUT-OF-SCOPE")
			} else if n.Unavailable {
				fmt.Fprint(w, "  UNAVAILABLE")
			}
			if n.Error != "" {
				fmt.Fprintf(w, "  error=%s", n.Error)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "  merged: %d results", r.Merged)
	if len(r.TopHits) > 0 {
		fmt.Fprint(w, "; top hits:")
		for _, h := range r.TopHits {
			fmt.Fprintf(w, " %s/%d(%.4g)", h.Database, h.DocID, h.Score)
		}
	}
	fmt.Fprintln(w)
}

// formatLambdas renders a shrinkage mixture as "λ[comp=w ...]".
func formatLambdas(ls []core.Lambda) string {
	if len(ls) == 0 {
		return "λ[?]"
	}
	parts := make([]string, len(ls))
	for i, l := range ls {
		parts[i] = fmt.Sprintf("%s=%.3f", l.Component, l.Weight)
	}
	return "λ[" + strings.Join(parts, " ") + "]"
}
