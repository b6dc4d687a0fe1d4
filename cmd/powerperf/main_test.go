package main

import (
	"flag"
	"strings"
	"testing"
	"time"
)

func TestValidateQueryFlags(t *testing.T) {
	cases := []struct {
		name             string
		rows, aggregates bool
		limit            int
		ok               bool
	}{
		{name: "study list", limit: 50, ok: true},
		{name: "rows", rows: true, limit: 50, ok: true},
		{name: "rows unlimited", rows: true, limit: 0, ok: true},
		{name: "aggregates", aggregates: true, limit: 50, ok: true},
		{name: "rows and aggregates", rows: true, aggregates: true, limit: 50},
		{name: "negative limit", rows: true, limit: -1},
		{name: "negative limit without rows", limit: -1},
	}
	for _, tc := range cases {
		err := validateQueryFlags(tc.rows, tc.aggregates, tc.limit)
		if (err == nil) != tc.ok {
			t.Errorf("%s: validateQueryFlags = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestStoreQueryFlags: each filter flag that takes a parsed value names
// itself when the value does not parse, so query and trend can exit 2
// before the store opens.
func TestStoreQueryFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		flag string // in the error; "" means the query parses
	}{
		{name: "no filters", args: nil},
		{name: "all filters", args: []string{"-filter-seed", "-7", "-since", "2011-03-05T09:30:00Z", "-until", "1299317400", "-processor", "i7 (45)"}},
		{name: "bad seed", args: []string{"-filter-seed", "x"}, flag: "-filter-seed"},
		{name: "fractional seed", args: []string{"-filter-seed", "4.2"}, flag: "-filter-seed"},
		{name: "bad since", args: []string{"-since", "garbage"}, flag: "-since"},
		{name: "bad until", args: []string{"-until", "yesterday"}, flag: "-until"},
		{name: "bad until, good since", args: []string{"-since", "0", "-until", "2011-03-05"}, flag: "-until"},
	}
	for _, tc := range cases {
		fs := flag.NewFlagSet("query", flag.ContinueOnError)
		query := storeQueryFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		q, err := query()
		switch {
		case tc.flag == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.flag != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.flag)):
			t.Errorf("%s: error %v, want one naming %s", tc.name, err, tc.flag)
		case tc.name == "all filters" && (q.Seed == nil || *q.Seed != -7 || !q.Since.Equal(q.Until) || q.Processor != "i7 (45)"):
			t.Errorf("%s: query %+v", tc.name, q)
		}
	}
}

func TestParseCLITime(t *testing.T) {
	cases := []struct {
		in   string
		want time.Time
		ok   bool
	}{
		{in: "", want: time.Time{}, ok: true},
		{in: "2011-03-05T09:30:00Z", want: time.Date(2011, 3, 5, 9, 30, 0, 0, time.UTC), ok: true},
		{in: "2011-03-05T09:30:00+02:00", want: time.Date(2011, 3, 5, 7, 30, 0, 0, time.UTC), ok: true},
		{in: "1299317400", want: time.Date(2011, 3, 5, 9, 30, 0, 0, time.UTC), ok: true},
		{in: "0", want: time.Unix(0, 0), ok: true},
		{in: "-60", want: time.Unix(-60, 0), ok: true},
		{in: "yesterday"},
		{in: "2011-03-05"},
		{in: "1299317400.5"},
		{in: " 1299317400"},
	}
	for _, tc := range cases {
		got, err := parseCLITime(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("parseCLITime(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && !got.Equal(tc.want) {
			t.Errorf("parseCLITime(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
