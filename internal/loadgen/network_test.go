package loadgen

import (
	"strings"
	"testing"

	"github.com/datacase/datacase/internal/gdprbench"
)

func TestRunNetworkSmoke(t *testing.T) {
	res, err := RunNetwork(NetworkConfig{
		Workload: gdprbench.Controller,
		Records:  300, Ops: 400, Conns: 8,
		Servers: 2, ShardsPerServer: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(); err != nil {
		t.Fatal(err)
	}
	if !res.SelfHosted || res.Servers != 2 || res.Conns != 8 {
		t.Fatalf("result = %+v", res)
	}
	if res.P50Micros <= 0 {
		t.Fatalf("no latency measured: %+v", res)
	}
}

func TestNetworkResultString(t *testing.T) {
	s := NetworkResult{
		Measured: Measured{Workload: "wcon", Profile: "P_Base", Ops: 1000, OpsPerSec: 1234,
			P50Micros: 10, P95Micros: 20, P99Micros: 30},
		Servers: 2, ShardsPerServer: 4, Conns: 64,
	}.String()
	for _, want := range []string{"wcon", "servers=2×4", "conns=64", "p99=30.0µs"} {
		if !strings.Contains(s, want) {
			t.Fatalf("row %q missing %q", s, want)
		}
	}
}

func TestNetworkResultValidate(t *testing.T) {
	good := NetworkResult{
		Measured: Measured{Ops: 10, OpsPerSec: 5, ElapsedSeconds: 2,
			P50Micros: 1, P95Micros: 2, P99Micros: 3, MaxMicros: 4},
		Conns: 4, Servers: 2, ShardsPerServer: 2, SelfHosted: true,
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	external := good
	external.SelfHosted, external.Servers, external.ShardsPerServer = false, 0, 0
	if err := external.Validate(); err != nil {
		t.Fatalf("external-deployment row refused: %v", err)
	}
	bads := []func(*NetworkResult){
		func(r *NetworkResult) { r.Ops = 0 },
		func(r *NetworkResult) { r.OpsPerSec = 0 },
		func(r *NetworkResult) { r.ElapsedSeconds = 0 },
		func(r *NetworkResult) { r.P50Micros = 90 },
		func(r *NetworkResult) { r.Conns = 0 },
		func(r *NetworkResult) { r.Servers = 0 },
	}
	for i, mutate := range bads {
		r := good
		mutate(&r)
		if err := r.Validate(); err == nil {
			t.Fatalf("bad result %d accepted", i)
		}
	}
}
