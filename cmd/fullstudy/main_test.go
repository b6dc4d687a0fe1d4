package main

import (
	"testing"
	"time"
)

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name        string
		traceOut    string
		traceBuffer int
		backends    string
		leaseExpiry time.Duration
		ok          bool
	}{
		{name: "defaults", traceBuffer: 65536, leaseExpiry: 2 * time.Second, ok: true},
		{name: "trace with buffer", traceOut: "t.json", traceBuffer: 1, leaseExpiry: 2 * time.Second, ok: true},
		{name: "trace with zero buffer", traceOut: "t.json", traceBuffer: 0, leaseExpiry: 2 * time.Second},
		{name: "trace with negative buffer", traceOut: "t.json", traceBuffer: -5, leaseExpiry: 2 * time.Second},
		{name: "zero buffer without trace", traceBuffer: 0, leaseExpiry: 2 * time.Second, ok: true},
		{name: "backends with expiry", backends: "http://a:8722", traceBuffer: 65536, leaseExpiry: time.Millisecond, ok: true},
		{name: "backends with zero expiry", backends: "http://a:8722", traceBuffer: 65536, leaseExpiry: 0},
		{name: "backends with negative expiry", backends: "http://a:8722", traceBuffer: 65536, leaseExpiry: -time.Second},
		{name: "zero expiry without backends", traceBuffer: 65536, leaseExpiry: 0, ok: true},
	}
	for _, tc := range cases {
		err := validateFlags(tc.traceOut, tc.traceBuffer, tc.backends, tc.leaseExpiry)
		if (err == nil) != tc.ok {
			t.Errorf("%s: validateFlags = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
