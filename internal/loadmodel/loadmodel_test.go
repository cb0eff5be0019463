package loadmodel

import (
	"math"
	"reflect"
	"testing"

	rt "softbarrier/internal/runtime"
	"softbarrier/internal/stats"
)

func TestLoadModelGenerators(t *testing.T) {
	r := stats.NewRNG(1)
	dst := make([]float64, 8)

	t.Run("static skew offsets persist", func(t *testing.T) {
		g := StaticSkew{Base: IID{N: 8, Dist: stats.Degenerate{V: 1}}, Offsets: LinearOffsets(8, 0.8)}
		for k := 0; k < 3; k++ {
			g.Times(k, r, dst)
			if got := dst[7] - dst[0]; math.Abs(got-0.8) > 1e-12 {
				t.Fatalf("episode %d: spread = %g, want 0.8", k, got)
			}
		}
	})

	t.Run("bursty adds extra only in bursts", func(t *testing.T) {
		g := &Bursty{Base: IID{N: 8, Dist: stats.Degenerate{V: 0}}, Extra: 1, OnProb: 0.5, StayProb: 0.9}
		bursts := 0
		for k := 0; k < 200; k++ {
			g.Times(k, r, dst)
			for _, v := range dst {
				switch v {
				case 0:
				case 1:
					bursts++
				default:
					t.Fatalf("episode %d: time %g not 0 or Extra", k, v)
				}
			}
		}
		if bursts == 0 {
			t.Fatal("no bursts in 200 episodes at OnProb=0.5")
		}
	})

	t.Run("phased switches on schedule", func(t *testing.T) {
		g := Phased{Phases: []Phase{
			{Episodes: 2, Gen: IID{N: 8, Dist: stats.Degenerate{V: 1}}},
			{Episodes: 3, Gen: IID{N: 8, Dist: stats.Degenerate{V: 2}}},
			{Gen: IID{N: 8, Dist: stats.Degenerate{V: 3}}},
		}}
		want := []float64{1, 1, 2, 2, 2, 3, 3, 3, 3, 3}
		for k, w := range want {
			g.Times(k, r, dst)
			if dst[0] != w {
				t.Fatalf("episode %d: %g, want %g", k, dst[0], w)
			}
		}
	})
}

// TestLoadModelDriftMatchesLegacy pins the Drift sample stream: the sweep
// cache keys experiment results by workload String() + seed, so the
// refactor out of internal/workload must not change a single draw.
func TestLoadModelDriftMatchesLegacy(t *testing.T) {
	gen := &Drift{N: 4, Dist: stats.Normal{Mu: 1e-3, Sigma: 1e-4}, Rho: 0.9, InnovSigma: 1e-4}
	r := stats.NewRNG(42)
	dst := make([]float64, 4)

	// Reference: the pre-refactor Evolving.Times body, inlined.
	bias := make([]float64, 4)
	rr := stats.NewRNG(42)
	want := make([]float64, 4)
	for k := 0; k < 50; k++ {
		gen.Times(k, r, dst)
		for i := range want {
			bias[i] = 0.9*bias[i] + 1e-4*rr.NormFloat64()
			want[i] = (stats.Normal{Mu: 1e-3, Sigma: 1e-4}).Sample(rr) + bias[i]
		}
		if !reflect.DeepEqual(dst, want) {
			t.Fatalf("episode %d: draw stream diverged: %v != %v", k, dst, want)
		}
	}
}

func TestLoadModelSchedule(t *testing.T) {
	g := StaticSkew{Base: IID{N: 4, Dist: stats.Degenerate{V: 1e-3}}, Offsets: LinearOffsets(4, 1e-3)}
	a := Schedule(g, 10, 7)
	b := Schedule(g, 10, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Schedule not deterministic for equal seeds")
	}
	if len(a) != 10 || len(a[0]) != 4 {
		t.Fatalf("shape %dx%d, want 10x4", len(a), len(a[0]))
	}
}

func TestIIDMoments(t *testing.T) {
	w := IID{N: 1000, Dist: stats.Normal{Mu: 5, Sigma: 2}}
	r := stats.NewRNG(1)
	dst := make([]float64, w.P())
	var all []float64
	for k := 0; k < 100; k++ {
		w.Times(k, r, dst)
		all = append(all, dst...)
	}
	if m := stats.Mean(all); math.Abs(m-5) > 0.05 {
		t.Errorf("mean %v, want ~5", m)
	}
	if sd := stats.StdDev(all); math.Abs(sd-2) > 0.05 {
		t.Errorf("sd %v, want ~2", sd)
	}
}

func TestSystemicOffsetsPersist(t *testing.T) {
	p := 64
	off := LinearOffsets(p, 10)
	w := StaticSkew{Base: IID{N: p, Dist: stats.Normal{Sigma: 0.01}}, Offsets: off}
	r := stats.NewRNG(2)
	dst := make([]float64, p)
	// With tiny noise, the slowest processor must be the one with the
	// largest offset on every iteration.
	for k := 0; k < 20; k++ {
		w.Times(k, r, dst)
		argmax := 0
		for i, v := range dst {
			if v > dst[argmax] {
				argmax = i
			}
		}
		if argmax != p-1 {
			t.Fatalf("iteration %d: slowest proc %d, want %d", k, argmax, p-1)
		}
	}
}

func TestLinearOffsets(t *testing.T) {
	off := LinearOffsets(5, 4)
	want := []float64{-2, -1, 0, 1, 2}
	for i := range want {
		if math.Abs(off[i]-want[i]) > 1e-12 {
			t.Fatalf("offsets %v, want %v", off, want)
		}
	}
	if one := LinearOffsets(1, 4); one[0] != 0 {
		t.Fatal("single processor offset should be 0")
	}
}

func TestEvolvingAutocorrelation(t *testing.T) {
	p := 256
	w := &Drift{N: p, Dist: stats.Normal{Sigma: 0.1}, Rho: 0.95, InnovSigma: 1}
	r := stats.NewRNG(3)
	prev := make([]float64, p)
	cur := make([]float64, p)
	// Warm up so biases reach stationarity.
	for k := 0; k < 100; k++ {
		w.Times(k, r, cur)
	}
	copy(prev, cur)
	w.Times(100, r, cur)
	if rho := stats.Spearman(prev, cur); rho < 0.7 {
		t.Errorf("evolving workload lag-1 rank correlation %v, want > 0.7", rho)
	}
}

func TestEvolvingZeroRhoIsIID(t *testing.T) {
	p := 512
	w := &Drift{N: p, Dist: stats.Normal{Sigma: 1}, Rho: 0, InnovSigma: 0}
	r := stats.NewRNG(4)
	a, b := make([]float64, p), make([]float64, p)
	w.Times(0, r, a)
	w.Times(1, r, b)
	if rho := stats.Spearman(a, b); math.Abs(rho) > 0.15 {
		t.Errorf("rho=0 workload correlated across iterations: %v", rho)
	}
}

func TestSampleArrivals(t *testing.T) {
	r := stats.NewRNG(5)
	xs := SampleArrivals(10000, stats.Normal{Sigma: 3}, r)
	if len(xs) != 10000 {
		t.Fatalf("got %d arrivals", len(xs))
	}
	if sd := stats.StdDev(xs); math.Abs(sd-3) > 0.1 {
		t.Errorf("arrival sd %v, want ~3", sd)
	}
}

// TestScheduleMatchesDirectSampling pins what a recorded trace holds:
// row k of Schedule is exactly the generator's episode k drawn from a
// fresh RNG with the same seed.
func TestScheduleMatchesDirectSampling(t *testing.T) {
	w := IID{N: 3, Dist: stats.Normal{Sigma: 1}}
	rows := Schedule(w, 4, 9)
	r := stats.NewRNG(9)
	dst := make([]float64, 3)
	for k := 0; k < 4; k++ {
		w.Times(k, r, dst)
		if !reflect.DeepEqual(rows[k], dst) {
			t.Fatalf("scheduled row %d differs", k)
		}
	}
}

func TestPlacementRank(t *testing.T) {
	got := Rank([]float64{0, 5e-3, 1e-3})
	if !reflect.DeepEqual(got, []int{1, 2, 0}) {
		t.Fatalf("Rank = %v, want [1 2 0]", got)
	}
	// Ties keep ascending-id order: uniform lags rank as identity.
	if got := Rank([]float64{1, 1, 1, 1}); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Fatalf("uniform Rank = %v, want identity", got)
	}
}

func TestPlacementPolicies(t *testing.T) {
	straggler5 := []float64{0, 0, 0, 0, 0, 5e-4, 0, 0}
	straggler2 := []float64{0, 0, 5e-4, 0, 0, 0, 0, 0}

	t.Run("static never orders", func(t *testing.T) {
		var p Static
		p.Observe(straggler5)
		if p.Order() != nil {
			t.Fatal("Static emitted an order")
		}
	})

	t.Run("reactive tracks last episode", func(t *testing.T) {
		p := &Reactive{}
		if p.Order() != nil {
			t.Fatal("order before any episode")
		}
		p.Observe(straggler5)
		if ord := p.Order(); ord[0] != 5 {
			t.Fatalf("order %v, want 5 first", ord)
		}
		p.Observe(straggler2)
		if ord := p.Order(); ord[0] != 2 {
			t.Fatalf("order %v after switch, want 2 first", ord)
		}
	})

	t.Run("ewma resists one-off noise", func(t *testing.T) {
		p := &EWMA{}
		for i := 0; i < 20; i++ {
			p.Observe(straggler5)
		}
		p.Observe(straggler2) // single noisy episode
		if ord := p.Order(); ord[0] != 5 {
			t.Fatalf("order %v after one noisy episode, want 5 still first", ord)
		}
		for i := 0; i < 40; i++ {
			p.Observe(straggler2)
		}
		if ord := p.Order(); ord[0] != 2 {
			t.Fatalf("order %v after sustained switch, want 2 first", ord)
		}
	})

	t.Run("ewma resets on membership change", func(t *testing.T) {
		p := &EWMA{}
		p.Observe(straggler5)
		p.Observe([]float64{0, 1e-3, 0, 0}) // p changed 8 -> 4
		ord := p.Order()
		if len(ord) != 4 || ord[0] != 1 {
			t.Fatalf("order %v after resize, want len 4 with 1 first", ord)
		}
	})

	t.Run("trend predicts the climber", func(t *testing.T) {
		p := &Trend{Window: 6}
		if p.Order() != nil {
			t.Fatal("order before two episodes")
		}
		// Participant 1 holds a constant 4e-4 lag; participant 6 climbs
		// through it and should outrank it on the extrapolation.
		for k := 0; k < 5; k++ {
			lags := make([]float64, 8)
			lags[1] = 4e-4
			lags[6] = float64(k) * 1e-4 // reaches 4e-4, predicted 5e-4 next
			p.Observe(lags)
		}
		if ord := p.Order(); ord[0] != 6 {
			t.Fatalf("order %v, want climbing participant 6 first", ord)
		}
	})

	t.Run("hysteresis suppresses small shifts", func(t *testing.T) {
		p := &Hysteresis{Inner: &Reactive{}, MinShift: 0.25}
		p.Observe(straggler5)
		first := p.Order()
		if first == nil || first[0] != 5 {
			t.Fatalf("first order %v, want emitted with 5 first", first)
		}
		// Tiny perturbation: same straggler, near-tied tail ids jitter.
		perturbed := []float64{0, 1e-9, 0, 0, 0, 5e-4, 0, 0}
		p.Observe(perturbed)
		if ord := p.Order(); ord != nil {
			t.Fatalf("hysteresis leaked a near-identical order %v", ord)
		}
		// A genuine straggler change passes.
		p.Observe(straggler2)
		if ord := p.Order(); ord == nil || ord[0] != 2 {
			t.Fatalf("order %v after real switch, want 2 first", ord)
		}
	})

	t.Run("registry", func(t *testing.T) {
		for _, name := range PolicyNames() {
			mk, ok := PolicyByName(name)
			if !ok {
				t.Fatalf("PolicyByName(%q) missing", name)
			}
			pol := mk()
			if pol == nil {
				t.Fatalf("factory %q returned nil", name)
			}
			pol.Observe(straggler5)
			pol.Observe(straggler5)
			ord := pol.Order()
			if name != "static" && (ord == nil || ord[0] != 5) {
				t.Fatalf("%s: order %v after two straggler episodes, want 5 first", name, ord)
			}
			if name == "static" && ord != nil {
				t.Fatalf("static emitted %v", ord)
			}
		}
		if _, ok := PolicyByName("nope"); ok {
			t.Fatal("unknown name resolved")
		}
	})
}

func TestEWMAAverages(t *testing.T) {
	p := &EWMA{Weight: 0.5}
	if p.Order() != nil {
		t.Fatal("order before any episode")
	}
	p.Observe([]float64{0, 1, 3})
	if !reflect.DeepEqual(p.lags, []float64{0, 1, 3}) {
		t.Fatalf("seed lags = %v, want [0 1 3]", p.lags)
	}
	// Second episode: participant 2 on time, participant 0 late.
	p.Observe([]float64{5, 0, 0})
	if !reflect.DeepEqual(p.lags, []float64{2.5, 0.5, 1.5}) {
		t.Fatalf("EWMA lags = %v, want [2.5 0.5 1.5]", p.lags)
	}
	// A length change reseeds.
	p.Observe([]float64{0, 2})
	if !reflect.DeepEqual(p.lags, []float64{0, 2}) {
		t.Fatalf("post-resize lags = %v, want [0 2]", p.lags)
	}
	p.Observe(nil)
	if p.Order() != nil {
		t.Fatal("order after an empty episode")
	}

	def := &EWMA{}
	def.Observe([]float64{0, 1})
	def.Observe([]float64{1, 0})
	w := rt.DefaultSigmaWeight
	if want := []float64{w, 1 - w}; !reflect.DeepEqual(def.lags, want) {
		t.Fatalf("Weight 0: lags = %v, want %v", def.lags, want)
	}
}

func TestPolicyStrings(t *testing.T) {
	want := map[string]string{
		"static":   "static",
		"reactive": "reactive",
		"ewma":     "ewma",
		"trend":    "trend(w=8)",
		"ewma-hys": "ewma+hys(0.25)",
	}
	for _, name := range PolicyNames() {
		mk, _ := PolicyByName(name)
		if got := mk().String(); got != want[name] {
			t.Errorf("%s: String() = %q, want %q", name, got, want[name])
		}
	}
}

func TestPlacementRankShift(t *testing.T) {
	a := []int{0, 1, 2, 3}
	if s := rankShift(a, []int{0, 1, 2, 3}); s != 0 {
		t.Fatalf("equal orders shift %g, want 0", s)
	}
	if s := rankShift(a, []int{3, 2, 1, 0}); math.Abs(s-0.75) > 1e-12 {
		t.Fatalf("reversal shift %g, want 0.75", s)
	}
	if s := rankShift(a, []int{1, 0, 2, 3}); math.Abs(s-0.25) > 1e-12 {
		t.Fatalf("adjacent swap shift %g, want 0.25", s)
	}
}
