package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name        string
		cacheShards int
		tailSample  float64
		monBackends string
		monInterval time.Duration
		ok          bool
	}{
		{name: "defaults", monInterval: 5 * time.Second, ok: true},
		{name: "power-of-two shards", cacheShards: 32, monInterval: 5 * time.Second, ok: true},
		{name: "odd shards", cacheShards: 12, monInterval: 5 * time.Second},
		{name: "negative shards", cacheShards: -1, monInterval: 5 * time.Second},
		{name: "tail sample in range", tailSample: 0.05, monInterval: 5 * time.Second, ok: true},
		{name: "tail sample one", tailSample: 1, monInterval: 5 * time.Second, ok: true},
		{name: "tail sample above one", tailSample: 1.5, monInterval: 5 * time.Second},
		{name: "tail sample negative", tailSample: -0.1, monInterval: 5 * time.Second},
		{name: "tail sample NaN", tailSample: math.NaN(), monInterval: 5 * time.Second},
		{name: "tail sample +Inf", tailSample: math.Inf(1), monInterval: 5 * time.Second},
		{name: "monitor with interval", monBackends: "self", monInterval: time.Second, ok: true},
		{name: "monitor with zero interval", monBackends: "self", monInterval: 0},
		{name: "monitor with negative interval", monBackends: "self", monInterval: -time.Second},
		{name: "zero interval without monitor", monInterval: 0, ok: true},
	}
	for _, tc := range cases {
		err := validateFlags(tc.cacheShards, tc.tailSample, tc.monBackends, tc.monInterval)
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
