package main

import (
	"strings"
	"testing"

	"repro/internal/pareto"
	"repro/internal/workload"
)

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name      string
		metric    string
		group     string
		args      []string
		objective pareto.Objective
		want      *workload.Group // nil: the four-group average
		flag      string          // named by the error; "" means valid
	}{
		{name: "defaults", metric: "energy", group: "average", objective: pareto.Energy},
		{name: "edp", metric: "edp", group: "average", objective: pareto.EDP},
		{name: "ed2p native non-scalable", metric: "ed2p", group: "nn", objective: pareto.ED2P,
			want: ptr(workload.NativeNonScalable)},
		{name: "native scalable", metric: "energy", group: "ns", want: ptr(workload.NativeScalable)},
		{name: "java non-scalable", metric: "energy", group: "jn", want: ptr(workload.JavaNonScalable)},
		{name: "java scalable", metric: "energy", group: "js", want: ptr(workload.JavaScalable)},
		{name: "unknown metric", metric: "power", group: "average", flag: "-metric"},
		{name: "metric case", metric: "EDP", group: "average", flag: "-metric"},
		{name: "unknown group", metric: "energy", group: "java", flag: "-group"},
		{name: "empty group", metric: "energy", group: "", flag: "-group"},
		{name: "stray argument", metric: "energy", group: "average", args: []string{"all"}, flag: "unexpected arguments"},
	}
	for _, tc := range cases {
		objective, group, err := validateFlags(tc.metric, tc.group, tc.args)
		if tc.flag != "" {
			if err == nil || !strings.HasPrefix(err.Error(), tc.flag) {
				t.Errorf("%s: validateFlags = %v, want an error naming %s", tc.name, err, tc.flag)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: validateFlags = %v, want ok", tc.name, err)
			continue
		}
		if objective != tc.objective || (group == nil) != (tc.want == nil) || (group != nil && *group != *tc.want) {
			t.Errorf("%s: validateFlags = %v, %v; want %v, %v", tc.name, objective, group, tc.objective, tc.want)
		}
	}
}

func ptr(g workload.Group) *workload.Group { return &g }
