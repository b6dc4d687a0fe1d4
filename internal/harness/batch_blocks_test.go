package harness

import (
	"context"
	"strconv"
	"testing"

	"repro/internal/proc"
	"repro/internal/workload"
)

// TestBatchBlocksGoldenAcrossSchedules is the block-scheduling half of
// the determinism contract: at a given seed, serial measurement, the
// default parallel schedule, and every block size — including the edge
// cases where the block does not divide the cell count, a degenerate
// block of 1, and a block larger than the whole batch — must produce
// identical measurements. Batching is pure scheduling; it may never
// change a number.
func TestBatchBlocksGoldenAcrossSchedules(t *testing.T) {
	jobs := GridJobs(proc.StockConfigs()[:2], workload.ByGroup(workload.JavaScalable))
	if len(jobs)%7 == 0 {
		t.Fatalf("test wants a block size that does not divide %d jobs", len(jobs))
	}
	for _, seed := range []int64{42, 0} {
		ref, err := New(seed)
		if err != nil {
			t.Fatal(err)
		}
		var want []*Measurement
		for _, j := range jobs {
			m, err := ref.Measure(j.Bench, j.CP)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, m)
		}

		check := func(name string, got []*Measurement) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("seed %d %s: %d results, want %d", seed, name, len(got), len(want))
			}
			for i := range got {
				if got[i].Seconds != want[i].Seconds || got[i].Watts != want[i].Watts ||
					got[i].EnergyJ != want[i].EnergyJ {
					t.Fatalf("seed %d %s: job %d (%s on %s) diverged from serial",
						seed, name, i, jobs[i].Bench.Name, jobs[i].CP)
				}
			}
		}

		h, err := New(seed)
		if err != nil {
			t.Fatal(err)
		}
		got, err := h.MeasureBatch(context.Background(), jobs, 8)
		if err != nil {
			t.Fatal(err)
		}
		check("parallel workers=8", got)

		for _, block := range []int{1, 7, len(jobs) + 10} {
			hb, err := New(seed)
			if err != nil {
				t.Fatal(err)
			}
			got, err := hb.measureBatchBlocks(context.Background(), jobs, 4, block)
			if err != nil {
				t.Fatal(err)
			}
			check("block size "+strconv.Itoa(block), got)
		}
	}
}
