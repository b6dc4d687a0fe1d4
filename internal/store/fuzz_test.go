package store

import (
	"bytes"
	"testing"
	"time"
)

// FuzzSegmentDecode hardens the segment decoder the way FuzzStreamDecode
// hardens the measure-stream decoder: arbitrary bytes must never panic,
// never allocate unboundedly (row and dictionary counts are validated
// against the bytes actually present before sizing any slice), and a
// valid segment must round-trip through a decode-encode-decode cycle.
func FuzzSegmentDecode(f *testing.F) {
	// Seed corpus: valid segments of several shapes plus systematic
	// mutilations of one.
	for _, n := range []int{1, 3, 61} {
		st := testStudy(42, time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC).UnixNano(), n)
		st.ID = studyID(st)
		buf, err := encodeSegment(nil, st)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		f.Add(buf[:len(buf)/2])    // torn mid-body
		f.Add(buf[:headerSize-3])  // torn mid-header
		f.Add(append(buf, buf...)) // trailing second segment
		mut := append([]byte(nil), buf...)
		mut[headerSize+9] ^= 0xff // corrupt body
		f.Add(mut)
		bad := append([]byte(nil), buf...)
		bad[5] = 0xff // absurd body length
		f.Add(bad)
	}
	f.Add([]byte{})
	f.Add([]byte(segMagic))
	f.Add([]byte("PPS1\xff\xff\xff\xff\xff\xff\xff\xff garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, n, err := DecodeSegment(data)
		if err != nil {
			if st != nil || n != 0 {
				t.Fatalf("error return carried a study or consumed bytes: %v, %d", st, n)
			}
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		if len(st.Rows) == 0 {
			t.Fatal("decoded segment with zero rows")
		}
		// Bounded allocation: a decoded row can never outnumber the
		// bytes that encoded it (each row costs well over one byte on
		// disk).
		if len(st.Rows) > n {
			t.Fatalf("%d rows decoded from %d bytes", len(st.Rows), n)
		}
		// Round-trip: re-encoding the decoded study reproduces the
		// consumed bytes exactly (dictionary order is first-seen, so
		// the encoding is canonical for a decoded study).
		re, err := encodeSegment(nil, st)
		if err != nil {
			t.Fatalf("re-encode of decoded study failed: %v", err)
		}
		if !bytes.Equal(re, data[:n]) {
			t.Fatal("decode-encode round trip changed segment bytes")
		}
	})
}
