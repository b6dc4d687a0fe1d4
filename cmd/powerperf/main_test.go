package main

import (
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
