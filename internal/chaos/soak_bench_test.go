package chaos

import (
	"context"
	"testing"
)

// BenchmarkSoakRecompute measures a recompute-heavy soak: a fake-clocked
// cluster living through 200 simulated hours of failure-dense MTBF/MTTR
// cycles. Every kill, supervisor restart and operator restart runs a
// cluster recompute plus a telemetry scan, so this is the end-to-end wall
// cost the incremental recompute targets (PR 5: 531 → 291 ms/op, 1 vCPU;
// go test -run '^$' -bench SoakRecompute -benchtime 3x ./internal/chaos).
func BenchmarkSoakRecompute(b *testing.B) {
	sc := SoakConfig{Hours: 200, Seed: 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunSoakContext(context.Background(), sc)
		if err != nil {
			b.Fatal(err)
		}
		if res.Failures == 0 {
			b.Fatal("soak injected no failures")
		}
	}
}
