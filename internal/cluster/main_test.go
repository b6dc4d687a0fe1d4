package cluster

import (
	"log/slog"
	"os"
	"testing"

	"repro/internal/telemetry"
)

// TestMain quiets scheduler and backend access logging: the suite
// deliberately provokes retries, steals, and re-dispatches, and backends
// log every request at Info. Warn keeps genuine failures visible.
func TestMain(m *testing.M) {
	telemetry.SetLogLevel(slog.LevelWarn)
	os.Exit(m.Run())
}
