package telemetry

import (
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
)

// Build identifies the running binary: module version, VCS commit, and
// the Go toolchain. It is stamped onto /metricsz (powerperf_build_info)
// and the User-Agent of every coordinator and monitor request, so a
// fleet operator can see at a glance which build each process runs —
// the observability sibling of the paper's insistence on reporting the
// exact measurement rig.
type Build struct {
	Version   string `json:"version"`
	Commit    string `json:"commit"`
	Modified  bool   `json:"modified,omitempty"`
	GoVersion string `json:"go"`
}

var (
	buildOnce sync.Once
	buildInfo Build
)

// BuildInfo reads the binary's embedded build metadata once. Fields
// missing from the embedding (a non-module build, no VCS stamp) come
// back as "unknown" rather than empty, so exposition labels and log
// fields are never blank.
func BuildInfo() Build {
	buildOnce.Do(func() {
		buildInfo = Build{Version: "unknown", Commit: "unknown", GoVersion: runtime.Version()}
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		if v := bi.Main.Version; v != "" && v != "(devel)" {
			buildInfo.Version = v
		} else if v != "" {
			buildInfo.Version = "devel"
		}
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				if len(s.Value) >= 12 {
					buildInfo.Commit = s.Value[:12]
				} else if s.Value != "" {
					buildInfo.Commit = s.Value
				}
			case "vcs.modified":
				buildInfo.Modified = s.Value == "true"
			}
		}
	})
	return buildInfo
}

// String renders the build as "version (commit, go1.x)", the form the
// dashboard header and log lines use.
func (b Build) String() string {
	var sb strings.Builder
	sb.WriteString(b.Version)
	sb.WriteString(" (")
	sb.WriteString(b.Commit)
	if b.Modified {
		sb.WriteString("+dirty")
	}
	sb.WriteString(", ")
	sb.WriteString(b.GoVersion)
	sb.WriteString(")")
	return sb.String()
}

// UserAgentToken renders the build as a User-Agent comment token,
// e.g. "(abc123def456; go1.24.0)". Parentheses-safe: commit and Go
// version come from the toolchain and contain no delimiters.
func (b Build) UserAgentToken() string {
	commit := b.Commit
	if b.Modified {
		commit += "+dirty"
	}
	return "(" + commit + "; " + b.GoVersion + ")"
}
