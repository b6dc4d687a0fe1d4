package main

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/service"
)

func TestValidateFlags(t *testing.T) {
	defaults := service.Options{QueueDepth: 1024}
	cases := []struct {
		name        string
		opts        service.Options
		tailSample  float64
		monBackends string
		monInterval time.Duration
		ok          bool
	}{
		{name: "defaults", opts: defaults, monInterval: 5 * time.Second, ok: true},
		{name: "explicit sizes", opts: service.Options{Workers: 4, QueueDepth: 1, CacheCapacity: 100, TraceBuffer: 1}, monInterval: 5 * time.Second, ok: true},
		{name: "negative workers", opts: service.Options{Workers: -1, QueueDepth: 1024}, monInterval: 5 * time.Second},
		{name: "zero queue", opts: service.Options{QueueDepth: 0}, monInterval: 5 * time.Second},
		{name: "negative queue", opts: service.Options{QueueDepth: -1}, monInterval: 5 * time.Second},
		{name: "negative cache cells", opts: service.Options{QueueDepth: 1024, CacheCapacity: -1}, monInterval: 5 * time.Second},
		{name: "negative trace buffer", opts: service.Options{QueueDepth: 1024, TraceBuffer: -1}, monInterval: 5 * time.Second},
		{name: "tail sample in range", opts: defaults, tailSample: 0.05, monInterval: 5 * time.Second, ok: true},
		{name: "tail sample one", opts: defaults, tailSample: 1, monInterval: 5 * time.Second, ok: true},
		{name: "tail sample above one", opts: defaults, tailSample: 1.5, monInterval: 5 * time.Second},
		{name: "tail sample negative", opts: defaults, tailSample: -0.1, monInterval: 5 * time.Second},
		{name: "tail sample NaN", opts: defaults, tailSample: math.NaN(), monInterval: 5 * time.Second},
		{name: "tail sample +Inf", opts: defaults, tailSample: math.Inf(1), monInterval: 5 * time.Second},
		{name: "monitor with interval", opts: defaults, monBackends: "self", monInterval: time.Second, ok: true},
		{name: "monitor with zero interval", opts: defaults, monBackends: "self", monInterval: 0},
		{name: "monitor with negative interval", opts: defaults, monBackends: "self", monInterval: -time.Second},
		{name: "zero interval without monitor", opts: defaults, monInterval: 0, ok: true},
	}
	for _, tc := range cases {
		err := validateFlags(tc.opts, tc.tailSample, tc.monBackends, tc.monInterval)
		if (err == nil) != tc.ok {
			t.Errorf("%s: validateFlags = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestMonitorTargets(t *testing.T) {
	cases := []struct {
		list, addr string
		want       []string
	}{
		{"self", ":8722", []string{"http://127.0.0.1:8722"}},
		{"self", "host:8722", []string{"http://host:8722"}},
		{" self , http://b:8722 ", ":8722", []string{"http://127.0.0.1:8722", "http://b:8722"}},
		{"http://a:8722,,http://b:8722,", ":8722", []string{"http://a:8722", "http://b:8722"}},
		{" , ", ":8722", nil},
	}
	for _, tc := range cases {
		if got := monitorTargets(tc.list, tc.addr); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("monitorTargets(%q, %q) = %q, want %q", tc.list, tc.addr, got, tc.want)
		}
	}
}
