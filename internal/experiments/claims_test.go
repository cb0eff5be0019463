package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// A claim is one statement EXPERIMENTS.md makes about a figure: a
// sentence quoted from the paper, or for the extensions the reading the
// reproduction states. check is the statement as a predicate over the
// golden tables. It returns what it read, which becomes the claim's
// "measured" cell in the section's gen:claims block, and whether the
// statement holds. Each check writes out its own tolerance. Where the
// paper gives a value and no bound, the tolerance is 10% of that value.
type claim struct {
	section string
	quote   string
	check   func(g golden) (measured string, ok bool)
}

// claims must hold on testdata/experiments.json.
var claims = []claim{
	{"EQ1", "delay of a full tree at σ=0 is exactly L·d·t_c", func(g golden) (string, bool) {
		ok := true
		var sim, degs []string
		for _, r := range g["EQ1"].Rows { // degree, levels, sim delay, L·d·t_c
			closed := fmt.Sprintf("%.3f", num(r[0])*num(r[1])*tc*1e3)
			ok = ok && r[2] == r[3] && r[2] == closed
			sim, degs = append(sim, r[2]), append(degs, r[0])
		}
		return fmt.Sprintf("sim %s ms for d=%s at p=4096, each equal to L·d·t_c",
			strings.Join(sim, "/"), strings.Join(degs, "/")), ok
	}},
	{"EQ1", "continuous optimum at d = e ≈ 2.71; integer degrees 2 and 4 tie", func(g golden) (string, bool) {
		tab := g["EQ1"]
		_, after, _ := strings.Cut(tab.Notes[0], "d = e ≈ ")
		e := num(after)
		d2, d4 := tab.Rows[0][2], tab.Rows[1][2]
		ok := math.Abs(e-math.E) < 0.001 && d2 == d4
		for _, r := range tab.Rows {
			ok = ok && num(r[2]) >= num(d4)
		}
		return fmt.Sprintf("e ≈ %.3f; d=2 and d=4 both %s ms (24·t_c), the smallest delay", e, d4), ok
	}},

	{"FIG2", "update delay ∝ tree depth", func(g golden) (string, bool) {
		ok := true
		var upd, depth []string
		for _, r := range g["FIG2"].Rows { // degree, depth, update, contention, total, model
			ok = ok && r[2] == fmt.Sprintf("%.3f", num(r[1])*tc*1e3)
			upd, depth = append(upd, r[2]), append(depth, r[1])
		}
		return fmt.Sprintf("%s ms for depths %s, exactly depth·t_c",
			strings.Join(upd, "/"), strings.Join(depth, "/")), ok
	}},
	{"FIG2", `contention delay "increases dramatically after a threshold tree degree (16 in this figure)"`, func(g golden) (string, bool) {
		// The threshold is the first degree whose contention is at least
		// 3× the previous degree's; every later step must be as steep.
		rows := g["FIG2"].Rows
		threshold := ""
		ok := true
		for i := 1; i < len(rows); i++ {
			steep := num(rows[i][3]) >= 3*num(rows[i-1][3])
			if threshold == "" && steep {
				threshold = rows[i][0]
			}
			ok = ok && (threshold == "" || steep)
		}
		return fmt.Sprintf("%s→%s ms up to d=8, then %s (d=16), %s (d=32), %s ms (d=64); first ≥3× step at d=%s",
			rows[0][3], rows[2][3], rows[3][3], rows[4][3], rows[5][3], threshold), ok && threshold == "16"
	}},
	{"FIG2", "no approximation for degree 32 (not a full tree)", func(g golden) (string, bool) {
		var none []string
		for _, r := range g["FIG2"].Rows {
			if r[5] == "-" {
				none = append(none, r[0])
			}
		}
		return fmt.Sprintf("model column is \"-\" for d=%s only", strings.Join(none, ",")),
			len(none) == 1 && none[0] == "32"
	}},
	{"FIG2", `approximation "captures the behavior"`, func(g golden) (string, bool) {
		// Within 10% of the simulated total for d ≤ 8; beyond, the model
		// must err high (conservative), as the paper's figure does.
		worst, ok := 0.0, true
		var over []string
		for _, r := range g["FIG2"].Rows {
			if r[5] == "-" {
				continue
			}
			ratio := num(r[5]) / num(r[4])
			if num(r[0]) <= 8 {
				worst = math.Max(worst, math.Abs(ratio-1))
				continue
			}
			ok = ok && ratio >= 1
			over = append(over, fmt.Sprintf("%.1f× at d=%s", ratio, r[0]))
		}
		return fmt.Sprintf("model within %.1f%% of the total for d ≤ 8; conservative beyond (%s)",
			100*worst, strings.Join(over, ", ")), ok && worst <= 0.10
	}},

	{"FIG3", "degree 4 optimal when arrivals are simultaneous or σ ≪ t_c", func(g golden) (string, bool) {
		ok := true
		for _, r := range g["FIG3"].Rows {
			ok = ok && num(r[1]) == 4 && num(r[2]) == 4 // σ = 0 and 1.6·t_c
		}
		return "4 at every p in the σ=0 and σ=1.6t_c columns", ok
	}},
	{"FIG3", "optimal degree grows with σ", func(g golden) (string, bool) {
		// Two adjacent cells whose printed speedups are equal are a tie:
		// their delays are indistinguishable at the printed precision, so
		// either degree is the optimum and a fall between them is not one.
		tab := g["FIG3"]
		ok := true
		var ties []string
		for _, r := range tab.Rows {
			for j := 2; j < len(r); j++ {
				if num(r[j]) >= num(r[j-1]) {
					continue
				}
				if paren(r[j]) != paren(r[j-1]) {
					ok = false
				}
				ties = append(ties, fmt.Sprintf("%s @ %s/%s reads %s then %s",
					r[0], sigmaOf(tab.Header[j-1]), sigmaOf(tab.Header[j]), r[j-1], r[j]))
			}
		}
		if len(ties) == 0 {
			return "no row's degree falls as σ grows", ok
		}
		return "no row's degree falls as σ grows, except at equal speedups, a tie: " + strings.Join(ties, "; "), ok
	}},
	{"FIG3", `optimal degree grows "to as much as 128 in a 4K system"`, func(g golden) (string, bool) {
		tab := g["FIG3"]
		r, best := tab.Rows[2], 1
		for j := range r[1:] {
			if num(r[j+1]) > num(r[best]) {
				best = j + 1
			}
		}
		return fmt.Sprintf("4096 row reaches %s at σ=%s", r[best], sigmaOf(tab.Header[best])), r[0] == "4096" && num(r[best]) >= 128
	}},
	{"FIG3", `"a single counter yields the smallest synchronization delay" for 64 procs at σ=25t_c`, func(g golden) (string, bool) {
		r := g["FIG3"].Rows[0]
		return fmt.Sprintf("%s: degree 64 = flat barrier", r[5]), r[0] == "64" && num(r[5]) == 64
	}},
	{"FIG3", `speedups "from 30 percent … up to 300 percent", read as ×1.3 and ×3 to the one significant figure quoted: the smallest speedup above 1 in [1.25, 1.35), the largest in [2.5, 3.5)`, func(g golden) (string, bool) {
		lo, hi, below := math.Inf(1), 0.0, 0
		for _, r := range g["FIG3"].Rows {
			for _, c := range r[1:] {
				s := paren(c)
				switch {
				case s < 1:
					below++
				case s > 1:
					lo, hi = math.Min(lo, s), math.Max(hi, s)
				}
			}
		}
		return fmt.Sprintf("speedups above 1 span %.2f–%.2f; %d below 1", lo, hi, below),
			below == 0 && lo >= 1.25 && lo < 1.35 && hi >= 2.5 && hi < 3.5
	}},

	{"FIG4", "est = 4 at σ=0 for all sizes", func(g golden) (string, bool) {
		ok := true
		for _, r := range g["FIG4"].Rows {
			ok = ok && num(r[2]) == 4 // σ = 0 column of both the opt and est rows
		}
		return "est and opt both 4 at σ=0 for p = 64, 256, 4096", ok
	}},

	{"FIG5", `slow processors "remain significantly slower for the next 20 iterations" when slack is ample: ρ ≥ 0.5 at every lag through 20 at 16 ms`, func(g golden) (string, bool) {
		r := g["FIG5"].Rows[3]
		ok := r[0] == "16"
		for _, c := range r[1:] {
			ok = ok && num(c) >= 0.5
		}
		return fmt.Sprintf("slack 16 ms: ρ = %s (lags 1, 2, 5, 10, 20)", strings.Join(r[1:], ", ")), ok
	}},
	{"FIG5", "placement prediction is infeasible at slack 0: ρ within ±0.05 of 0 at every lag", func(g golden) (string, bool) {
		r := g["FIG5"].Rows[0]
		worst := 0.0
		for _, c := range r[1:] {
			worst = math.Max(worst, math.Abs(num(c)))
		}
		return fmt.Sprintf("slack 0: ρ within ±%.2f of 0 at lags 1–20", worst), r[0] == "0" && worst <= 0.05
	}},

	{"FIG8", "no benefit at slack 0 (paper: speedup 1.00 at d=4, 0.99 at d=16)", func(g golden) (string, bool) {
		d4, d16 := metricRow(g["FIG8"], 4, "sync speedup"), metricRow(g["FIG8"], 16, "sync speedup")
		return fmt.Sprintf("%s (d=4), %s (d=16) at slack 0", d4[0], d16[0]),
			within(num(d4[0]), 1, 0.05) && within(num(d16[0]), 1, 0.05)
	}},
	{"FIG8", "last proc depth 5.85 → 1.24 (d=4) and 2.99 → 1.21 (d=16): within 10% at slack 0, at most 10% above at 16 ms", func(g golden) (string, bool) {
		d4, d16 := metricRow(g["FIG8"], 4, "last proc depth"), metricRow(g["FIG8"], 16, "last proc depth")
		return fmt.Sprintf("%s → %s (d=4), %s → %s (d=16)", d4[0], d4[4], d16[0], d16[4]),
			depthFalls(d4[0], d4[4], 5.85, 1.24) && depthFalls(d16[0], d16[4], 2.99, 1.21)
	}},
	{"FIG8", "sync speedup 1.00 → 4.71 (d=4) and 0.99 → 2.45 (d=16): at least 90% of it at 16 ms", func(g golden) (string, bool) {
		d4, d16 := metricRow(g["FIG8"], 4, "sync speedup"), metricRow(g["FIG8"], 16, "sync speedup")
		return fmt.Sprintf("%s → %s (d=4), %s → %s (d=16)", d4[0], d4[4], d16[0], d16[4]),
			num(d4[4]) >= 0.9*4.71 && num(d16[4]) >= 0.9*2.45
	}},
	{"FIG8", "communication overhead bounded by 1/(d+1) and shrinking with slack (paper: ≤ 1.09)", func(g golden) (string, bool) {
		ok := true
		var read []string
		for _, d := range []float64{4, 16} {
			r := metricRow(g["FIG8"], int(d), "comm overhead")
			for i, c := range r {
				ok = ok && num(c) >= 1 && num(c) <= 1+1/(d+1)
				if i > 0 {
					ok = ok && num(c) <= num(r[i-1])
				}
			}
			read = append(read, fmt.Sprintf("%s → %s (d=%g)", r[0], r[len(r)-1], d))
		}
		return strings.Join(read, ", "), ok
	}},

	{"FIG9", `"the synchronization delay is relatively insensitive to the system size when load imbalance is sufficiently large": at σ=2ms the optimal degree's delay spreads less over p than degree 4's and is never higher`, func(g golden) (string, bool) {
		var d4, opt []float64
		ok := true
		for _, r := range g["FIG9"].Rows { // procs, d=4 σ=0.5, opt σ=0.5, d*, d=4 σ=2, opt σ=2, d*
			d4, opt = append(d4, num(r[4])), append(opt, num(r[5]))
			ok = ok && num(r[5]) <= num(r[4])
		}
		return fmt.Sprintf("σ=2ms, p=16→4096: optimal %.3f–%.3f ms (%.1f×), degree 4 %.3f–%.3f ms (%.1f×)",
			minOf(opt), maxOf(opt), spread(opt), minOf(d4), maxOf(d4), spread(d4)), ok && spread(opt) < spread(d4)
	}},

	{"FIG10", `"the dynamic placement scheme almost neutralizes the tree depth in larger systems, and the synchronization delay is nearly constant": dynamic delay within 2× over p where static's is not, last depth below 2 at every p`, func(g golden) (string, bool) {
		static, dynamic, depth := scaling(g, "FIG10")
		return fmt.Sprintf("dynamic %.3f–%.3f ms (%.2f×), static %.3f–%.3f ms (%.2f×), dynamic last depth ≤ %.2f",
				minOf(dynamic), maxOf(dynamic), spread(dynamic), minOf(static), maxOf(static), spread(static), maxOf(depth)),
			spread(dynamic) <= 2 && spread(static) > 2 && maxOf(depth) < 2
	}},
	{"FIG11", `degree 16 with dynamic placement is "scalable to large numbers of processors provided slack is available": dynamic delay within 2× over p where static's is not`, func(g golden) (string, bool) {
		static, dynamic, _ := scaling(g, "FIG11")
		return fmt.Sprintf("dynamic d=16 %.3f–%.3f ms (%.2f×), static d=16 %.3f–%.3f ms (%.2f×)",
				minOf(dynamic), maxOf(dynamic), spread(dynamic), minOf(static), maxOf(static), spread(static)),
			spread(dynamic) <= 2 && spread(static) > 2
	}},

	{"FIG12", "σ grows with d_y", func(g golden) (string, bool) {
		rows := g["FIG12"].Rows // dy, σ (µs), σ/tc, opt degree, speedup
		ok := true
		for i := 1; i < len(rows); i++ {
			ok = ok && num(rows[i][1]) > num(rows[i-1][1])
		}
		last := rows[len(rows)-1]
		return fmt.Sprintf("σ = %s → %s µs over d_y = %s → %s, rising at every step",
			rows[0][1], last[1], rows[0][0], last[0]), ok
	}},
	{"FIG12", "optimal degree rises from 4 to 32 with speedup 0→23%", func(g golden) (string, bool) {
		rows := g["FIG12"].Rows
		ok := num(rows[0][3]) == 4 && num(rows[0][4]) == 1
		for i := 1; i < len(rows); i++ {
			ok = ok && num(rows[i][3]) >= num(rows[i-1][3]) && num(rows[i][4]) >= num(rows[i-1][4])
		}
		last := rows[len(rows)-1]
		return fmt.Sprintf("degree %s → %s and speedup %s → %s, neither ever falling", rows[0][3], last[3], rows[0][4], last[4]),
			ok && num(last[3]) >= 32 && num(last[4]) >= 1.23
	}},

	{"FIG13", "dynamic placement loses slightly at small slack: speedup in [0.9, 1) at slack 0", func(g golden) (string, bool) {
		ok := true
		var read []string
		for _, d := range []int{2, 4, 16} {
			s := metricRow(g["FIG13"], d, "sync speedup")[0]
			ok = ok && num(s) >= 0.9 && num(s) < 1
			read = append(read, s)
		}
		return strings.Join(read, " / ") + " (d = 2 / 4 / 16)", ok
	}},
	{"FIG13", "speedup → 1.73 (d=2) and → 1.32 (d=16) at large slack: at least 90% of it at 4 ms", func(g golden) (string, bool) {
		d2, d16 := metricRow(g["FIG13"], 2, "sync speedup"), metricRow(g["FIG13"], 16, "sync speedup")
		return fmt.Sprintf("%s (d=2), %s (d=16) at 4 ms", d2[5], d16[5]),
			num(d2[5]) >= 0.9*1.73 && num(d16[5]) >= 0.9*1.32
	}},
	{"FIG13", "last proc depth falls with slack", func(g golden) (string, bool) {
		ok := true
		var read []string
		for _, d := range []int{2, 4, 16} {
			r := metricRow(g["FIG13"], d, "last proc depth")
			ok = ok && num(r[5]) < num(r[0])
			read = append(read, fmt.Sprintf("%s → %s (d=%d)", r[0], r[5], d))
		}
		return strings.Join(read, ", ") + ", slack 0 → 4 ms", ok
	}},

	{"EXT1", "dissemination and tournament delays are flat in σ (structural log₂ p): within 5% over the σ grid", func(g golden) (string, bool) {
		var dis, tour []float64
		for _, r := range g["EXT1"].Rows { // σ/tc, tree d=4, tree opt (d*), dissemination, tournament, central
			dis, tour = append(dis, num(r[3])), append(tour, num(r[4]))
		}
		return fmt.Sprintf("dissemination %s ms, tournament %s ms over σ = 0–50t_c", span(dis, "%.3f"), span(tour, "%.3f")),
			spread(dis) <= 1.05 && spread(tour) <= 1.05
	}},
	{"EXT1", "the tuned combining tree beats the log₂ p baselines for σ ≥ 6.2·t_c and is within 2× of them at σ=0", func(g golden) (string, bool) {
		ok := true
		var tuned []float64
		for _, r := range g["EXT1"].Rows {
			best := math.Min(num(r[3]), num(r[4]))
			if num(r[0]) >= 6.2 {
				ok = ok && num(r[2]) < best
				tuned = append(tuned, num(r[2]))
			}
		}
		r0 := g["EXT1"].Rows[0]
		atZero := num(r0[2]) / math.Min(num(r0[3]), num(r0[4]))
		return fmt.Sprintf("tuned %.3f–%.3f ms for σ ≥ 6.2t_c; %.1f× the best baseline at σ=0", minOf(tuned), maxOf(tuned), atZero),
			ok && num(r0[0]) == 0 && atZero <= 2
	}},

	{"EXT2", `[13]'s "expected idle time inversely proportional to the slack time": idle falls at every step, idle × slack within 2× from 0.5 to 8 ms, before the arrival spread fits inside the slack`, func(g golden) (string, bool) {
		rows := g["EXT2"].Rows // slack (ms), mean idle (µs), idle × slack
		ok := true
		var prod []float64
		for i, r := range rows {
			if i > 0 {
				ok = ok && num(r[1]) < num(rows[i-1][1])
			}
			if num(r[0]) <= 8 {
				prod = append(prod, num(r[2]))
			}
		}
		last := rows[len(rows)-1]
		return fmt.Sprintf("idle %s → %s µs; idle × slack %.0f–%.0f µs·ms through 8 ms, %s at %s ms",
				rows[0][1], last[1], minOf(prod), maxOf(prod), last[2], last[0]),
			ok && spread(prod) <= 2
	}},

	{"EXT3", "the adaptive policy matches the better fixed degree in both regimes: within 10% of it, widening to ≥ 16 after the switch", func(g golden) (string, bool) {
		ok := true
		var read []string
		for _, r := range g["EXT3"].Rows { // phase, σ/tc, d=4, d=64, adaptive, adaptive degree
			best := math.Min(num(r[2]), num(r[3]))
			ok = ok && num(r[4]) <= 1.1*best
			read = append(read, fmt.Sprintf("phase %s: %s vs %.3f ms at degree %s", r[0], r[4], best, r[5]))
		}
		return strings.Join(read, "; "), ok && num(g["EXT3"].Rows[1][5]) >= 16
	}},

	{"EXT4", "the exponential widens the optimal degree at smaller σ than the normal, while the bounded uniform stays narrower longer", func(g golden) (string, bool) {
		ok := true
		for _, r := range g["EXT4"].Rows { // σ/tc, normal, uniform, exponential
			ok = ok && num(r[2]) <= num(r[1])
		}
		r := g["EXT4"].Rows[1]
		return fmt.Sprintf("σ=%st_c: exponential %g, normal %g, uniform %g; uniform ≤ normal at every σ", r[0], num(r[3]), num(r[1]), num(r[2])),
			ok && r[0] == "6.2" && num(r[3]) > num(r[1]) && num(r[1]) > num(r[2])
	}},
	{"EXT4", "under every shape the optimal degree grows with σ and is wide (≥ 8) at σ=25·t_c", func(g golden) (string, bool) {
		rows := g["EXT4"].Rows
		ok, last := true, rows[len(rows)-1]
		var read []string
		for c, name := range []string{"normal", "uniform", "exponential"} {
			for i := 1; i < len(rows); i++ {
				ok = ok && num(rows[i][c+1]) >= num(rows[i-1][c+1])
			}
			ok = ok && num(last[c+1]) >= 8
			read = append(read, fmt.Sprintf("%s %g → %g", name, num(rows[0][c+1]), num(last[c+1])))
		}
		return strings.Join(read, ", "), ok && last[0] == "25"
	}},

	{"EXT5", "the optimal degree still grows monotonically with imbalance", func(g golden) (string, bool) {
		ok := true
		var read []string
		for _, r := range g["EXT5"].Rows { // degradation, σ=0, σ=6.2tc, σ=25tc
			ok = ok && num(r[2]) >= num(r[1]) && num(r[3]) >= num(r[2])
			read = append(read, fmt.Sprintf("%g→%g→%g (α=%s)", num(r[1]), num(r[2]), num(r[3]), r[0]))
		}
		return strings.Join(read, ", "), ok
	}},
	{"EXT5", "test-and-set degradation shifts the whole optimal-degree curve narrower", func(g golden) (string, bool) {
		rows := g["EXT5"].Rows
		ok := true
		for c := 1; c < len(rows[0]); c++ {
			for i := 1; i < len(rows); i++ {
				ok = ok && num(rows[i][c]) <= num(rows[i-1][c])
			}
			ok = ok && num(rows[len(rows)-1][c]) < num(rows[0][c])
		}
		hi := rows[len(rows)-1]
		return fmt.Sprintf("α=%s → %s: σ=0 optimum %g → %g (%.2f× over degree 4), σ=25t_c %g → %g",
			rows[0][0], hi[0], num(rows[0][1]), num(hi[1]), paren(hi[1]), num(rows[0][3]), num(hi[3])), ok
	}},

	{"EXT6", "dynamic placement holds the last-processor depth near the ring floor (≈2): at most 10% above it", func(g golden) (string, bool) {
		var depth []float64
		for _, r := range g["EXT6"].Rows { // degree, static, dynamic, speedup, dyn last depth
			depth = append(depth, num(r[4]))
		}
		return fmt.Sprintf("%.2f–%.2f over degrees 4–32 at p=1088", minOf(depth), maxOf(depth)), maxOf(depth) <= 2.2
	}},
	{"EXT6", "the static optimum is degree 32", func(g golden) (string, bool) {
		best := g["EXT6"].Rows[0]
		for _, r := range g["EXT6"].Rows {
			if num(r[1]) < num(best[1]) {
				best = r
			}
		}
		return fmt.Sprintf("smallest static delay %s ms at d=%s", best[1], best[0]), best[0] == "32"
	}},

	{"EXT7", "a queue lock keeps the constant-t_c abstraction, the same magnitude as the paper's measured 20µs: flat within 2×, and within 2× of 20µs", func(g golden) (string, bool) {
		var q []float64
		for _, r := range g["EXT7"].Rows { // contenders, queue lock, test-and-set, TAS/queue
			q = append(q, num(r[1]))
		}
		return fmt.Sprintf("queue lock %.1f–%.1f µs per update over 1–56 contenders", minOf(q), maxOf(q)),
			spread(q) <= 2 && minOf(q) >= 10 && maxOf(q) <= 40
	}},
	{"EXT7", "test-and-set degrades with contention", func(g golden) (string, bool) {
		rows := g["EXT7"].Rows
		ok := true
		for i := 1; i < len(rows); i++ {
			ok = ok && num(rows[i][3]) > num(rows[i-1][3])
		}
		last := rows[len(rows)-1]
		return fmt.Sprintf("TAS/queue %s× → %s× (1 → %s contenders), rising at every step", rows[0][3], last[3], last[0]), ok
	}},

	{"EXT8", "the flat counter saturates the link feeding its home; combining trees cut total traffic and peak link utilization: util ≤ 0.5 and ≤ 1/3 of the flat traffic", func(g golden) (string, bool) {
		rows := g["EXT8"].Rows // scheme, messages, completion, traffic, util
		flat := rows[0]
		var traffic, util []float64
		ok := flat[0] == "flat counter" && num(flat[4]) == 1
		for _, r := range rows[1:] {
			traffic, util = append(traffic, num(r[3])), append(util, num(r[4]))
			ok = ok && num(r[4]) <= 0.5 && num(r[3]) <= num(flat[3])/3
		}
		return fmt.Sprintf("flat %s slot·hops at util %s; trees %g–%g at %.2f–%.2f",
			flat[3], flat[4], minOf(traffic), maxOf(traffic), minOf(util), maxOf(util)), ok
	}},
	{"EXT8", "completion is propagation-bound for every scheme", func(g golden) (string, bool) {
		rows := g["EXT8"].Rows
		ok := true
		for _, r := range rows {
			ok = ok && r[2] == rows[0][2]
		}
		return fmt.Sprintf("%s µs for every scheme on the 64-node ring", rows[0][2]), ok
	}},

	{"EXT9", "2-straggler: every predictive policy recovers the 4× static-vs-placed speedup, within 10%", func(g golden) (string, bool) {
		r := g["EXT9"].Rows[0] // workload, static, reactive, ewma, trend, ewma-hys
		ok := r[0] == "2-straggler"
		var placed []float64
		for _, c := range r[2:] {
			ok = ok && within(num(r[1])/num(c), 4, 0.10)
			placed = append(placed, num(c))
		}
		return fmt.Sprintf("static %.1f µs, every policy %s µs", num(r[1]), span(placed, "%.1f")), ok
	}},
	{"EXT9", "linear+noise: reacting to the last episode's ranks (reactive, trend) is worse than not placing at all", func(g golden) (string, bool) {
		r := g["EXT9"].Rows[1]
		return fmt.Sprintf("reactive %.1f, trend %.1f vs static %.1f µs", num(r[2]), num(r[4]), num(r[1])),
			r[0] == "linear+noise" && num(r[2]) > num(r[1]) && num(r[4]) > num(r[1])
	}},
	{"EXT9", "linear+noise: the hysteresis wrapper holds the tree steady, rebuilding less than ewma", func(g golden) (string, bool) {
		r := g["EXT9"].Rows[1]
		return fmt.Sprintf("%g vs %g rebuilds", paren(r[5]), paren(r[3])), r[0] == "linear+noise" && paren(r[5]) < paren(r[3])
	}},
}

// knownDeviations are claims the reproduction does not meet. Each must
// still fail: a change that makes one hold moves it to claims.
var knownDeviations = []claim{
	{"FIG4", "model-estimated degree's delay within 7% of the simulated optimum on average", func(g golden) (string, bool) {
		_, after, _ := strings.Cut(g["FIG4"].Notes[0], "optimal degree = ")
		ratio := num(after)
		return fmt.Sprintf("mean est/opt delay ratio %.3f over the 18 cells", ratio), ratio <= 1.07
	}},
	{"FIG4", `the estimate occasionally misses the optimal degree but its speedup is "not significantly smaller": within 10% in every cell`, func(g golden) (string, bool) {
		tab := g["FIG4"]
		rows := tab.Rows
		missed, lost := 0, 0
		worst, worstAt := 1.0, ""
		for i := 0; i+1 < len(rows); i += 2 { // an opt row, then its est row
			opt, est := rows[i], rows[i+1]
			for j := 2; j < len(opt); j++ {
				if num(est[j]) != num(opt[j]) {
					missed++
				}
				kept := paren(est[j]) / paren(opt[j])
				if kept < 0.9 {
					lost++
				}
				if kept < worst {
					worst, worstAt = kept, fmt.Sprintf("%s @ %s, est %s vs opt %s", opt[0], sigmaOf(tab.Header[j]), est[j], opt[j])
				}
			}
		}
		return fmt.Sprintf("est ≠ opt in %d of 18 cells; %d lose more than 10%%, worst %s", missed, lost, worstAt), lost == 0
	}},
	{"FIG13", "speedup < 1 below ~1 ms slack (d=2)", func(g golden) (string, bool) {
		tab := g["FIG13"]
		cross := ""
		ok := true
		for i, c := range metricRow(tab, 2, "sync speedup") {
			slack := tab.Header[i+2] // "slack 0.25ms"
			if num(c) >= 1 && cross == "" {
				cross = fmt.Sprintf("%s at %s", c, slack)
			}
			if num(strings.TrimPrefix(slack, "slack ")) < 1 {
				ok = ok && num(c) < 1
			}
		}
		if cross == "" {
			return "d=2 stays below 1 through 4 ms", ok
		}
		return "d=2 speedup already " + cross, ok
	}},
	{"FIG13", "last proc depth 4.38 → 1.67 (d=2) and 2.88 → 1.24 (d=16): within 10% at slack 0, at most 10% above at the largest slack", func(g golden) (string, bool) {
		d2, d16 := metricRow(g["FIG13"], 2, "last proc depth"), metricRow(g["FIG13"], 16, "last proc depth")
		return fmt.Sprintf("%s → %s (d=2), %s → %s (d=16), slack 0 → 4 ms", d2[0], d2[5], d16[0], d16[5]),
			depthFalls(d2[0], d2[5], 4.38, 1.67) && depthFalls(d16[0], d16[5], 2.88, 1.24)
	}},
}

// TestPaperClaims checks every claim against testdata/experiments.json,
// and that every known deviation still fails. It simulates nothing.
func TestPaperClaims(t *testing.T) {
	g := readGolden(t)
	for _, c := range claims {
		if measured, ok := c.check(g); !ok {
			t.Errorf("%s: claim does not hold: %q\n\tmeasured: %s", c.section, c.quote, measured)
		}
	}
	for _, c := range knownDeviations {
		if measured, ok := c.check(g); ok {
			t.Errorf("%s: known deviation now holds, move it to claims: %q\n\tmeasured: %s", c.section, c.quote, measured)
		}
	}
}

// claimsBlock renders a section's claims, then its known deviations, as
// the body of EXPERIMENTS.md's gen:claims-<section> block.
func claimsBlock(g golden, section string) string {
	var b strings.Builder
	b.WriteString("| claim | measured | ✓/✗ |\n|---|---|---|\n")
	for _, c := range append(claims[:len(claims):len(claims)], knownDeviations...) {
		if c.section != section {
			continue
		}
		measured, ok := c.check(g)
		mark := "✗"
		if ok {
			mark = "✓"
		}
		fmt.Fprintf(&b, "| %s | %s | %s |\n", c.quote, measured, mark)
	}
	return b.String()
}

// golden is testdata/experiments.json, the output of cmd/experiments
// -json at the default options, by table ID.
type golden map[string]*Table

func readGolden(t *testing.T) golden {
	t.Helper()
	raw, err := os.ReadFile("testdata/experiments.json")
	if err != nil {
		t.Fatal(err)
	}
	g := golden{}
	dec := json.NewDecoder(bytes.NewReader(raw))
	for dec.More() {
		tab := &Table{}
		if err := dec.Decode(tab); err != nil {
			t.Fatal(err)
		}
		g[tab.ID] = tab
	}
	return g
}

// num parses the number a cell starts with: 0.480, or 64 of "64 (2.97)".
func num(cell string) float64 {
	s := strings.TrimSpace(cell)
	end := strings.IndexFunc(s, func(r rune) bool { return !strings.ContainsRune("+-.0123456789", r) })
	if end >= 0 {
		s = s[:end]
	}
	return parseNum(cell, s)
}

// paren parses the number a cell holds in parentheses: 2.97 of "64 (2.97)".
func paren(cell string) float64 {
	_, s, _ := strings.Cut(cell, "(")
	s, _, _ = strings.Cut(s, ")")
	return parseNum(cell, s)
}

func parseNum(cell, s string) float64 {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		panic(fmt.Sprintf("golden cell %q: %v", cell, err))
	}
	return v
}

// sigmaOf shortens a σ column header: "σ=25tc" → "25t_c".
func sigmaOf(header string) string {
	return strings.TrimSuffix(strings.TrimPrefix(header, "σ="), "tc") + "t_c"
}

// metricRow returns the slack cells of a FIG8/FIG13-shaped table's row
// for degree d and metric m. A degree's first row names it and its other
// rows leave the degree cell blank.
func metricRow(tab *Table, d int, m string) []string {
	deg := ""
	for _, r := range tab.Rows {
		if r[0] != "" {
			deg = r[0]
		}
		if deg == strconv.Itoa(d) && r[1] == m {
			return r[2:]
		}
	}
	panic(fmt.Sprintf("%s has no %q row for degree %d", tab.ID, m, d))
}

// depthFalls compares a last-processor depth series' endpoints with the
// paper's: the start within 10%, the end at most 10% above.
func depthFalls(start, end string, paperStart, paperEnd float64) bool {
	return within(num(start), paperStart, 0.10) && num(end) <= 1.1*paperEnd
}

// scaling reads a FIG10/FIG11 table: static and dynamic delay and the
// dynamic last-processor depth, one entry per system size.
func scaling(g golden, id string) (static, dynamic, depth []float64) {
	for _, r := range g[id].Rows { // procs, static, dynamic, speedup, dyn last depth
		static, dynamic, depth = append(static, num(r[1])), append(dynamic, num(r[2])), append(depth, num(r[4]))
	}
	return static, dynamic, depth
}

// span renders the range of xs, or its one value if all are equal.
func span(xs []float64, format string) string {
	lo, hi := fmt.Sprintf(format, minOf(xs)), fmt.Sprintf(format, maxOf(xs))
	if lo == hi {
		return lo
	}
	return lo + "–" + hi
}

// within reports whether x is within tol·want of want.
func within(x, want, tol float64) bool { return math.Abs(x-want) <= tol*want }

// spread is the ratio of the largest to the smallest of xs.
func spread(xs []float64) float64 { return maxOf(xs) / minOf(xs) }

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
