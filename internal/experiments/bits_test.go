package experiments

import (
	"bytes"
	"context"
	"crypto/md5"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/counters"
	"repro/internal/harness"
	"repro/internal/proc"
	"repro/internal/stats"
)

// TestMeasuredBitsPinned pins every float64 the harness measures over
// the full 45x61 grid at seeds 42 and 0, bit for bit. The goldens
// elsewhere allow 1e-9 relative error and the dataset CSVs print %.6g,
// so a one-ulp drift in the meter or the simulator would pass them; a
// SHA-256 over math.Float64bits of every field of every Measurement
// does not. The same runs then render both CSVs: at seed 42 they must
// equal the committed dataset/ byte for byte, at seed 0 they must match
// the recorded md5s.
func TestMeasuredBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64; architectures whose compiler fuses x*y+z into one FMA (arm64, ppc64le, s390x, riscv64) round differently")
	}
	for _, tc := range []struct {
		seed   int64
		digest string
		csvMD5 map[string]string // nil: the committed dataset/ files
	}{
		{42, "30753ce98b9debc83d7900a1900aa31db6bf728545a5f57094a635ba031cda93", nil},
		{0, "bb2754bde3f88c5fd0e3ad5818e5db93095a081439c3080eecf5c8971173a2ea", map[string]string{
			"measurements.csv": "9fbbdb0332e8898f5a7bb241bad751f2",
			"aggregates.csv":   "e5600ff29f254c2a1c6eff1d7f4ea56a",
		}},
	} {
		hs, err := harness.New(tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := hs.Reference()
		if err != nil {
			t.Fatal(err)
		}
		jobs := harness.GridJobs(proc.ConfigSpace(), nil)
		ms, err := hs.MeasureBatch(context.Background(), jobs, 0)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, m := range ms {
			writeMeasurementBits(h, m)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.digest {
			t.Errorf("seed %d: measurement bits digest %s, want %s", tc.seed, got, tc.digest)
		}

		// The grid is cached now, so rendering measures nothing again.
		var mbuf, abuf bytes.Buffer
		if err := StreamMeasurementsCSVFrom(context.Background(), hs, ref, nil, &mbuf, 0); err != nil {
			t.Fatal(err)
		}
		if err := StreamAggregatesCSVFrom(context.Background(), hs, ref, nil, &abuf, 0); err != nil {
			t.Fatal(err)
		}
		for file, got := range map[string][]byte{"measurements.csv": mbuf.Bytes(), "aggregates.csv": abuf.Bytes()} {
			if tc.csvMD5 == nil {
				want, err := os.ReadFile(filepath.Join("..", "..", "dataset", file))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("seed %d %s differs from dataset/%s (%d vs %d bytes)", tc.seed, file, file, len(got), len(want))
				}
				continue
			}
			if sum := md5.Sum(got); hex.EncodeToString(sum[:]) != tc.csvMD5[file] {
				t.Errorf("seed %d %s md5 %x, want %s", tc.seed, file, sum, tc.csvMD5[file])
			}
		}
	}
}

// writeMeasurementBits feeds the bits of every number a Measurement
// carries into h: each run, the means, the mean counters and both CIs.
func writeMeasurementBits(h hash.Hash, m *harness.Measurement) {
	var buf []byte
	f := func(v float64) { buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v)) }
	n := func(v int) { buf = binary.LittleEndian.AppendUint64(buf, uint64(v)) }
	ctrs := func(c counters.Counters) {
		f(c.Cycles)
		f(c.Instructions)
		f(c.AppInstructions)
		f(c.ServiceInstructions)
		f(c.LLCMisses)
		f(c.DTLBMisses)
		f(c.BranchInstructions)
	}
	ci := func(c stats.CI) {
		f(c.Mean)
		f(c.Half)
		f(c.Level)
		n(c.N)
	}
	n(len(m.Runs))
	for _, r := range m.Runs {
		f(r.Seconds)
		f(r.Watts)
		ctrs(r.Counters)
	}
	f(m.Seconds)
	f(m.Watts)
	f(m.EnergyJ)
	ctrs(m.Counters)
	ci(m.TimeCI)
	ci(m.PowerCI)
	h.Write(buf)
}
