package main

import (
	"fmt"
	"sync"
	"time"

	"softbarrier"
	"softbarrier/internal/wire"
	"softbarrier/internal/wire/memnet"
)

// The ladder probes run single-goroutine for a fixed count after the timed
// rounds of a traced run. Each replays one episode's call mix through one
// layer alone, so that a layer has a cost of its own next to the spans,
// which can only see layers from outside.
const (
	probeCodecReps = 20000
	probePipeReps  = 1000
	probeSteps     = 3000  // single-driver session replays
	probeTreeSteps = 20000 // bare tree episodes
)

// episodeFrames is the frame mix of one episode of a networked workload,
// in wire order, or nil for an in-process one.
func episodeFrames(workload string) []wire.Frame {
	rel := wire.Frame{Type: wire.TypeRelease, Episode: 1 << 20, Degree: 4, P: cohort, Epoch: 3, Spread: 250e-6, Sigma: 80e-6}
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	var mix []wire.Frame
	repeat := func(n int, f wire.Frame) {
		for i := 0; i < n; i++ {
			mix = append(mix, f)
		}
	}
	switch workload {
	case "mem-skewed-32":
		repeat(32, wire.Frame{Type: wire.TypeArrive, Episode: 1 << 20})
		repeat(32, rel)
	case "barrierd-busy-4x8":
		rel.P = 8
		repeat(8, wire.Frame{Type: wire.TypeArrive, Episode: 1 << 20})
		repeat(8, rel)
	case "fleet-allreduce-2x8":
		rel.P, rel.Data = 8, data
		up := rel
		up.Type, up.P, up.FleetP = wire.TypeShardRelease, 2, 16
		rel.Type = wire.TypeResult
		repeat(16, wire.Frame{Type: wire.TypeArriveData, Episode: 1 << 20, Data: data})
		repeat(2, wire.Frame{Type: wire.TypeShardArrive, Episode: 1 << 20, P: 8, Spread: 250e-6, Sigma: 80e-6, Data: data})
		repeat(2, up)
		repeat(16, rel)
	}
	return mix
}

// probe adds the ladder metrics of w to out.layers.
func probe(w *workload, e *env, out *outcome) error {
	L := out.layers
	frames := episodeFrames(w.name)
	if frames == nil {
		L["runtime.wait_goroutines_p50_us"] = probeWaitGoroutines()
		return nil
	}

	codec, bytes, err := probeCodec(frames)
	if err != nil {
		return err
	}
	L["wire.codec_us_per_episode"] = codec
	L["wire.frames_per_episode"] = value{float64(len(frames)), 1}
	L["wire.bytes_per_episode"] = value{float64(bytes), 1}
	if L["memnet.pipe_us_per_episode"], err = probePipe(memnet.New(), "mem:0", frames); err != nil {
		return err
	}
	if L["tcp.pipe_us_per_episode"], err = probePipe(wire.DefaultTCP, "127.0.0.1:0", frames); err != nil {
		return err
	}

	switch w.name {
	case "mem-skewed-32":
		// What the session layer costs is what is left of an episode with
		// no skew once the rungs below it are taken off.
		flat, err := replay(func() (instance, error) { return openMemSession(cohort, nil, false, e.seed) })
		if err != nil {
			return err
		}
		tree := probeTree()
		L["softbarrier.reconfig_us_per_episode"] = tree
		L["netbarrier.session_us_per_episode"] = value{flat.V - tree.V - codec.V - L["memnet.pipe_us_per_episode"].V, flat.N}
	case "fleet-allreduce-2x8":
		// What the leaf/root hop costs is the fleet's episode less the same
		// sixteen members on one server.
		flat, err := replay(func() (instance, error) { return openMemSession(16, nil, true, e.seed) })
		if err != nil {
			return err
		}
		fleet := out.e2e["episode_p50_us"]
		L["shardbarrier.hop_us_per_episode"] = value{fleet.V - flat.V, flat.N}
	}
	return nil
}

// probeCodec encodes and decodes the frames, and returns the time per
// pass and the encoded size of one pass.
func probeCodec(frames []wire.Frame) (value, int, error) {
	var buf []byte
	bytes := 0
	t0 := now()
	for rep := 0; rep < probeCodecReps; rep++ {
		bytes = 0
		for _, f := range frames {
			var err error
			if buf, err = wire.AppendFrame(buf[:0], f); err != nil {
				return value{}, 0, err
			}
			if _, err = wire.DecodeFrame(buf[4:]); err != nil {
				return value{}, 0, err
			}
			bytes += len(buf)
		}
	}
	return value{float64(now()-t0) / probeCodecReps / 1e3, probeCodecReps}, bytes, nil
}

// probePipe sends the frames through a FrameConn pair on tr, writer and
// reader on this one goroutine, and returns the time per pass.
func probePipe(tr wire.Transport, bind string, frames []wire.Frame) (value, error) {
	ln, err := tr.Listen(bind)
	if err != nil {
		return value{}, err
	}
	defer ln.Close()
	dialed, err := tr.Dial(ln.Addr().String(), 5*time.Second)
	if err != nil {
		return value{}, err
	}
	tx := wire.NewFrameConn(dialed)
	defer tx.Close()
	accepted, err := ln.Accept()
	if err != nil {
		return value{}, err
	}
	rx := wire.NewFrameConn(accepted)
	defer rx.Close()

	pass := func() error {
		for _, f := range frames {
			if err := tx.WriteFrame(f); err != nil {
				return err
			}
			if _, err := rx.ReadFrame(); err != nil {
				return err
			}
		}
		return nil
	}
	for rep := 0; rep < probePipeReps/10; rep++ { // warm the buffers
		if err := pass(); err != nil {
			return value{}, err
		}
	}
	t0 := now()
	for rep := 0; rep < probePipeReps; rep++ {
		if err := pass(); err != nil {
			return value{}, err
		}
	}
	return value{float64(now()-t0) / probePipeReps / 1e3, probePipeReps}, nil
}

// replay opens a session, drives it for a warm-up and a timed round with
// the single driver, and returns the median episode period in µs.
func replay(open func() (instance, error)) (value, error) {
	inst, err := open()
	if err != nil {
		return value{}, err
	}
	defer inst.close()
	var rs roundStats
	for r, buf := range []*roundBuf{nil, newRoundBuf(probeSteps, 1)} {
		var ok int
		if rs, ok, err = timeRound(inst, r, probeSteps, 1, buf, nil); err != nil {
			return value{}, err
		}
		if ok != probeSteps {
			return value{}, fmt.Errorf("probe replay: %d of %d episodes failed their checks", probeSteps-ok, probeSteps)
		}
	}
	return value{rs.periodP50 / 1e3, probeSteps}, nil
}

// probeTree is the mean single-driver episode of the tree core a session
// runs on, in µs.
func probeTree() value {
	b := softbarrier.NewReconfigurable(cohort, softbarrier.ReconfigConfig{ReplanEvery: 10})
	episode := func() {
		for id := 0; id < cohort; id++ {
			b.Arrive(id)
		}
		for id := 0; id < cohort; id++ {
			b.Await(id)
		}
	}
	for k := 0; k < probeTreeSteps/10; k++ {
		episode()
	}
	t0 := now()
	for k := 0; k < probeTreeSteps; k++ {
		episode()
	}
	return value{float64(now()-t0) / probeTreeSteps / 1e3, probeTreeSteps}
}

// probeWaitGoroutines drives the combining tree the way a library user
// does, one goroutine per member calling Wait, and returns the median
// episode in µs as member 0 sees it. On few cores it flips between two
// scheduler regimes from run to run, which is why no end-to-end metric is
// measured this way.
func probeWaitGoroutines() value {
	b := softbarrier.NewCombiningTree(cohort, 4)
	stamps := make([]int64, probeTreeSteps+1)
	var wg sync.WaitGroup
	for id := 0; id < cohort; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < probeTreeSteps; k++ {
				if id == 0 {
					stamps[k] = now()
				}
				b.Wait(id)
			}
		}(id)
	}
	wg.Wait()
	stamps[probeTreeSteps] = now()
	period := make([]int64, probeTreeSteps)
	for k := range period {
		period[k] = stamps[k+1] - stamps[k]
	}
	return value{percentile(period, 0.5) / 1e3, len(period)}
}
