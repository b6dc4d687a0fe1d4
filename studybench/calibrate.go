package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Host speed. On the shared reference host the same study runs up to
// 40% slower for minutes at a time while other tenants load the
// machine, which no run length averages out. So before each child set-up
// and each repetition, while the benchmark process is idle, a child process
// of this binary times a fixed piece of work on every P. The work uses
// only the Go runtime and the standard library — float math, small
// allocations with the collector running, JSON, maps and sorting, the
// study's own mix — and runs in a process of its own, so no change to
// the program, not even to how much heap it holds, moves it. Every
// timing metric is reported scaled by nominalCalibration over the run's
// median calibration: the time on a host that does this work in
// nominalCalibration. host.calibration_ms reports that median, so the
// wall times as measured can be recovered.
const nominalCalibration = 15 * time.Millisecond

// calibrateFlag makes the binary run the calibration work and print its
// time instead of benchmarking.
const calibrateFlag = "-calibrate"

// calibrate times the calibration work in a child process.
func calibrate() (time.Duration, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var out bytes.Buffer
	cmd := exec.Command(self, calibrateFlag)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("calibration: %w", err)
	}
	ns, err := strconv.ParseInt(strings.TrimSpace(out.String()), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("calibration: %w", err)
	}
	return time.Duration(ns), nil
}

// runCalibration is the child's side: the work once to grow the heap to
// its working size, then once timed.
func runCalibration() {
	calibrationRun()
	fmt.Println(int64(calibrationRun()))
}

// calibrationRun runs the calibration work once on every P and returns
// its wall time.
func calibrationRun() time.Duration {
	var wg sync.WaitGroup
	t0 := time.Now()
	for p := runtime.GOMAXPROCS(0); p > 0; p-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			calibrationSink.Add(calibrationWork())
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// calibrationSink keeps the work from being optimised away.
var calibrationSink atomic.Int64

type calibrationRow struct {
	Name   string
	Values []float64
	Next   *calibrationRow
}

func calibrationWork() int64 {
	var n int64
	for rep := 0; rep < 6; rep++ {
		rows := make([]calibrationRow, 64)
		x := 1.0
		for i := range rows {
			vals := make([]float64, 24)
			for j := range vals {
				x = math.Mod(x*1.000001+math.Sqrt(float64(i*j+rep+1)), 1e6)
				vals[j] = math.Exp(-x/1e6) * math.Log1p(x)
			}
			rows[i] = calibrationRow{Name: strconv.Itoa(i*7919 + rep), Values: vals}
		}
		b, _ := json.Marshal(rows)
		var back []calibrationRow
		_ = json.Unmarshal(b, &back)
		keys := make([]string, 0, len(back))
		for _, r := range back {
			keys = append(keys, r.Name)
		}
		sort.Strings(keys)
		n += int64(len(keys[0]))
	}
	m := make(map[int]*calibrationRow, 4096)
	var head *calibrationRow
	for i := 0; i < 60000; i++ {
		r := &calibrationRow{Name: strconv.Itoa(i), Next: head}
		if i%3 == 0 {
			head = r
		}
		m[i%4096] = r
	}
	return n + int64(len(m))
}
