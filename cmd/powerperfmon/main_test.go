package main

import (
	"log/slog"
	"reflect"
	"testing"
	"time"
)

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name     string
		backends string
		interval time.Duration
		logLevel string
		targets  []string
		level    slog.Level
		ok       bool
	}{
		{name: "defaults", backends: "http://a:8722", interval: 5 * time.Second, logLevel: "warn",
			targets: []string{"http://a:8722"}, level: slog.LevelWarn, ok: true},
		{name: "list with blanks", backends: " http://a:8722, ,http://b:8722 ", interval: time.Millisecond, logLevel: "debug",
			targets: []string{"http://a:8722", "http://b:8722"}, level: slog.LevelDebug, ok: true},
		{name: "no backends", backends: "", interval: 5 * time.Second, logLevel: "warn"},
		{name: "only separators", backends: " , ", interval: 5 * time.Second, logLevel: "warn"},
		{name: "zero interval", backends: "http://127.0.0.1:1", interval: 0, logLevel: "warn"},
		{name: "negative interval", backends: "http://127.0.0.1:1", interval: -time.Second, logLevel: "warn"},
		{name: "bad log level", backends: "http://a:8722", interval: 5 * time.Second, logLevel: "loud"},
	}
	for _, tc := range cases {
		targets, level, err := validateFlags(tc.backends, tc.interval, tc.logLevel)
		if (err == nil) != tc.ok {
			t.Errorf("%s: validateFlags = %v, want ok=%v", tc.name, err, tc.ok)
			continue
		}
		if tc.ok && (!reflect.DeepEqual(targets, tc.targets) || level != tc.level) {
			t.Errorf("%s: validateFlags = %q, %v; want %q, %v", tc.name, targets, level, tc.targets, tc.level)
		}
	}
}
