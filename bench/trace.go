package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// spanKind indexes kinds: what a span was recorded around.
type spanKind uint8

const (
	spanEpisode  spanKind = iota // root: first arrival issued → the next episode's first arrival
	spanCompute                  // scheduled busy-wait standing in for members' work
	spanArrive                   // Σ over members of Client.Arrive / ArriveReduce
	spanAwait                    // Σ over members of Client.Await
	spanTree                     // Arrive…Await block on the TreeBarrier
	spanDynamic                  // … on the DynamicBarrier
	spanReconfig                 // … on the ReconfigurableBarrier
	numSpanKinds
)

// kinds gives each span kind its name and the module it is charged to.
// Every kind but the episode is a child of the episode.
var kinds = [numSpanKinds]struct{ name, layer string }{
	spanEpisode:  {"episode", "loadgen"},
	spanCompute:  {"compute", "loadgen"},
	spanArrive:   {"client_arrive", "netbarrier"},
	spanAwait:    {"client_await", "netbarrier"},
	spanTree:     {"tree", "softbarrier"},
	spanDynamic:  {"dynamic", "softbarrier"},
	spanReconfig: {"reconfig", "softbarrier"},
}

// span is one recorded interval. A layer gets one span per episode: where
// the driver calls into it several times in an episode (32 Arrive calls
// with busy-waits between them) the span starts at the first call and its
// length is the sum of the calls.
type span struct {
	start, dur int64 // ns on the run clock
	id         int32 // the episode's id, shared by its child spans
	kind       spanKind
}

// tracer keeps a traced run's spans in memory; the file is written when
// the run ends. A nil *tracer records nothing, which is the untraced run.
type tracer struct {
	workload string
	spans    []span
	id       int32
	open     int     // index of the episode span not yet ended, -1 for none
	lag      []int64 // per episode, mean lateness of its scheduled arrivals, ns
}

func newTracer(workload string, steps int) *tracer {
	return &tracer{workload: workload, spans: make([]span, 0, steps*4), open: -1, lag: make([]int64, 0, steps)}
}

// begin ends the open episode span at start and opens the next one there;
// add then files spans under it. An episode's span is its period, first
// arrival to the next episode's first arrival, so that its self time —
// the span minus its children — is what the driver itself costs: drawing
// contributions, checking releases, keeping samples.
func (t *tracer) begin(start int64) {
	if t == nil {
		return
	}
	t.end(start)
	t.id++
	t.open = len(t.spans)
	t.spans = append(t.spans, span{start: start, id: t.id, kind: spanEpisode})
}

// end ends the open episode span, which is a round's last.
func (t *tracer) end(at int64) {
	if t != nil && t.open >= 0 {
		t.spans[t.open].dur = at - t.spans[t.open].start
		t.open = -1
	}
}

func (t *tracer) add(k spanKind, start, dur int64) {
	if t != nil {
		t.spans = append(t.spans, span{start: start, dur: dur, id: t.id, kind: k})
	}
}

func (t *tracer) addLag(ns int64) {
	if t != nil {
		t.lag = append(t.lag, ns)
	}
}

// totals returns, per span kind, the summed length of its spans, and the
// number of episode spans.
func (t *tracer) totals() (sum [numSpanKinds]int64, episodes int) {
	for _, s := range t.spans {
		sum[s.kind] += s.dur
		if s.kind == spanEpisode {
			episodes++
		}
	}
	return sum, episodes
}

// selfTime is a parent's length minus the part its children cover.
func selfTime(parent int64, children ...int64) int64 {
	for _, c := range children {
		parent -= c
	}
	return parent
}

// maxFileSpans bounds the span file: a traced lib-tight-32 run records
// over a hundred thousand spans, and the per-layer numbers are computed
// from memory, not from the file.
const maxFileSpans = 20000

// spanRecord is the file form of a span.
type spanRecord struct {
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	ID       int32  `json:"id"`
	Parent   string `json:"parent,omitempty"`
	Episode  int32  `json:"episode"`
	Workload string `json:"workload"`
}

// write puts the first maxFileSpans spans in path, one JSON object a line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		if i == maxFileSpans {
			break
		}
		rec := spanRecord{
			Name: kinds[s.kind].name, Layer: kinds[s.kind].layer,
			StartNs: s.start, EndNs: s.start + s.dur,
			ID: s.id, Episode: s.id - 1, Workload: t.workload,
		}
		if s.kind != spanEpisode {
			rec.Parent = kinds[spanEpisode].name
		}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
