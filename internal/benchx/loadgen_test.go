package benchx

import (
	"testing"

	"github.com/datacase/datacase/internal/compliance"
	"github.com/datacase/datacase/internal/gdprbench"
	"github.com/datacase/datacase/internal/loadgen"
)

func TestClientSweepUpTo(t *testing.T) {
	cases := map[int][]int{
		0:  {1, 4, 16},
		1:  {1},
		4:  {1, 4},
		8:  {1, 4, 8},
		16: {1, 4, 16},
		32: {1, 4, 16, 32},
	}
	for in, want := range cases {
		got := ClientSweepUpTo(in)
		if len(got) != len(want) {
			t.Fatalf("ClientSweepUpTo(%d) = %v, want %v", in, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("ClientSweepUpTo(%d) = %v, want %v", in, got, want)
			}
		}
	}
}

func TestLoadgenSweepAndFigure(t *testing.T) {
	s := Scale{Records: 300, Txns: 200, Seed: 1}
	results, err := LoadgenSweep(compliance.PBase(), gdprbench.Controller, s, 4, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if results[0].Clients != 1 || results[1].Clients != 2 {
		t.Fatalf("client counts wrong: %+v", results)
	}
	fig := LoadgenFigure(results)
	if len(fig.Series) != 1 {
		t.Fatalf("figure has %d series, want 1", len(fig.Series))
	}
	if len(fig.Series[0].Points) != 2 {
		t.Fatalf("series has %d points, want 2", len(fig.Series[0].Points))
	}
	if Render(fig) == "" || RenderCSV(fig) == "" {
		t.Fatal("figure failed to render")
	}
}

func TestLoadgenFigureSplitsSerialWAL(t *testing.T) {
	results := []loadgen.Result{
		{Measured: loadgen.Measured{Workload: "WCon", Profile: "P_Base", ElapsedSeconds: 0.1}, Clients: 1},
		{Measured: loadgen.Measured{Workload: "WCon", Profile: "P_Base", ElapsedSeconds: 0.2}, Clients: 1, SerialWAL: true},
	}
	fig := LoadgenFigure(results)
	if len(fig.Series) != 2 {
		t.Fatalf("serial-WAL results merged into %d series", len(fig.Series))
	}
}
