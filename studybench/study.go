package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/service"
)

// csvPair holds one study's two CSV files. The buffers are reused across
// repetitions so the benchmark's own retained memory stays constant.
type csvPair struct {
	meas, agg bytes.Buffer
}

// digest identifies a CSV pair byte for byte.
type digest struct {
	meas, agg [sha256.Size]byte
}

func (c *csvPair) digest() digest {
	return digest{meas: sha256.Sum256(c.meas.Bytes()), agg: sha256.Sum256(c.agg.Bytes())}
}

// runStudy runs one study through the scheduler: the normalisation
// reference, then measurements.csv, then aggregates.csv, each pass
// capped at streams concurrent lease streams. With a tracer it records
// the study's reference, render and pass spans from outside. It returns
// the reference for read-backs.
func runStudy(ctx context.Context, sched *cluster.Scheduler, streams int, out *csvPair, t *tracer) (*harness.Reference, error) {
	out.meas.Reset()
	out.agg.Reset()
	var measSrc, aggSrc experiments.Source = sched, sched
	if t != nil {
		measSrc = &passSource{sched: sched, t: t, pass: spanPassMeasurements}
		aggSrc = &passSource{sched: sched, t: t, pass: spanPassAggregates}
	}
	var ref *harness.Reference
	err := t.do(spanReference, func() (err error) {
		ref, err = sched.Reference(ctx, streams)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	err = t.do(spanRenderMeasurements, func() error {
		return experiments.StreamMeasurementsCSVFrom(ctx, measSrc, ref, nil, &out.meas, streams)
	})
	if err != nil {
		return nil, fmt.Errorf("measurements.csv: %w", err)
	}
	err = t.do(spanRenderAggregates, func() error {
		return experiments.StreamAggregatesCSVFrom(ctx, aggSrc, ref, nil, &out.agg, streams)
	})
	if err != nil {
		return nil, fmt.Errorf("aggregates.csv: %w", err)
	}
	return ref, nil
}

// readbackPass reads the finished study's measurements.csv back out of a
// fleet without a store: the default path's only copy of a study is in
// the backends' caches, so a client asks the fleet again.
func readbackPass(ctx context.Context, sched *cluster.Scheduler, ref *harness.Reference, streams int, out *bytes.Buffer) error {
	out.Reset()
	return experiments.StreamMeasurementsCSVFrom(ctx, sched, ref, nil, out, streams)
}

// expectedDigest is the correctness reference for a study seed: the
// committed dataset/ CSVs for seed 42, and an untimed local serial
// harness run for any other seed.
func expectedDigest(ctx context.Context, seed int64) (digest, error) {
	var out csvPair
	if seed == 42 {
		for _, f := range []struct {
			name string
			buf  *bytes.Buffer
		}{{"measurements.csv", &out.meas}, {"aggregates.csv", &out.agg}} {
			b, err := os.ReadFile(filepath.Join("dataset", f.name))
			if err != nil {
				return digest{}, fmt.Errorf("reference dataset: %w", err)
			}
			f.buf.Write(b)
		}
		return out.digest(), nil
	}
	h, err := harness.New(seed)
	if err != nil {
		return digest{}, err
	}
	ref, err := h.Reference()
	if err != nil {
		return digest{}, err
	}
	if err := experiments.StreamMeasurementsCSVFrom(ctx, h, ref, nil, &out.meas, 1); err != nil {
		return digest{}, err
	}
	if err := experiments.StreamAggregatesCSVFrom(ctx, h, ref, nil, &out.agg, 1); err != nil {
		return digest{}, err
	}
	return out.digest(), nil
}

// measurementDigest hashes every value a measurement carries, so an
// interactive reply can be checked against a local computation after
// the timed window without keeping the reply itself.
func measurementDigest(m *harness.Measurement) uint64 {
	h := fnv.New64a()
	var b [8]byte
	f := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	counters := func(c service.CountersJSON) {
		for _, v := range []float64{c.Cycles, c.Instructions, c.AppInstructions,
			c.ServiceInstructions, c.LLCMisses, c.DTLBMisses, c.BranchInstructions} {
			f(v)
		}
	}
	h.Write([]byte(m.Bench.Name + "|" + m.CP.String()))
	f(float64(len(m.Runs)))
	for _, r := range m.Runs {
		f(r.Seconds)
		f(r.Watts)
		counters(service.CountersToJSON(r.Counters))
	}
	f(m.Seconds)
	f(m.Watts)
	f(m.EnergyJ)
	counters(service.CountersToJSON(m.Counters))
	for _, ci := range [...]service.CIJSON{service.CIToJSON(m.TimeCI), service.CIToJSON(m.PowerCI)} {
		f(ci.Mean)
		f(ci.Half)
		f(ci.Level)
		f(float64(ci.N))
	}
	return h.Sum64()
}
