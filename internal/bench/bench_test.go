package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/xzstar"
)

// tinyConfig keeps experiment smoke tests fast.
func tinyConfig(t *testing.T) Config {
	return Config{
		Dir:     t.TempDir(),
		TDriveN: 400,
		LorryN:  400,
		Queries: 3,
		Seed:    7,
	}
}

// Every experiment must run end to end and emit a non-empty table.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are slow")
	}
	for _, r := range Runners {
		r := r
		t.Run(r.Name, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			if err := Run(r.Name, tinyConfig(t), &buf); err != nil {
				t.Fatalf("%s: %v", r.Name, err)
			}
			out := buf.String()
			if !strings.Contains(out, "##") {
				t.Fatalf("%s produced no table:\n%s", r.Name, out)
			}
			if strings.Count(out, "\n") < 4 {
				t.Fatalf("%s produced a suspiciously small table:\n%s", r.Name, out)
			}
		})
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("nope", tinyConfig(t), &buf); err == nil {
		t.Fatal("unknown experiment must fail")
	}
}

func TestTableWrite(t *testing.T) {
	tab := &Table{Title: "demo", Columns: []string{"a", "long-header"}}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	var buf bytes.Buffer
	tab.Write(&buf)
	out := buf.String()
	if !strings.Contains(out, "## demo") || !strings.Contains(out, "long-header") {
		t.Fatalf("bad render:\n%s", out)
	}
}

func TestPercentile(t *testing.T) {
	ds := []time.Duration{5, 1, 4, 2, 3}
	if got := median(ds); got != 3 {
		t.Fatalf("median = %v", got)
	}
	if got := percentile(ds, 0.99); got != 5 {
		t.Fatalf("p99 = %v", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Fatalf("empty percentile = %v", got)
	}
	// Input must not be mutated.
	if ds[0] != 5 {
		t.Fatal("percentile mutated its input")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.TDriveN != 8000 || c.LorryN != 8000 || c.Queries != 15 || c.Seed != 1 {
		t.Fatalf("defaults: %+v", c)
	}
}

// Fig. 13(c) is arithmetic on each trajectory's index entry: the integer key
// is shard + 8 value bytes + separator + id whatever the resolution, the
// TraSS-S key spends one byte per quadrant digit plus the position code — so
// the integer key is the smaller one, by resolution − 7 bytes.
func TestRowKeySizes(t *testing.T) {
	trajs := tinyConfig(t).dataset(dsTDrive)
	intB, strB := rowKeySizes(trajs)
	ix := xzstar.MustNew(xzstar.DefaultResolution)
	var ids, digits int
	for _, tr := range trajs {
		ids += len(tr.ID)
		digits += ix.Assign(tr.Points).Seq.Len()
	}
	n := float64(len(trajs))
	if want := 10 + float64(ids)/n; intB != want {
		t.Errorf("integer key = %v B, want %v", intB, want)
	}
	if want := 3 + float64(ids+digits)/n; strB != want {
		t.Errorf("string key = %v B, want %v", strB, want)
	}
	if intB >= strB {
		t.Errorf("integer keys (%.1f B) must beat string keys (%.1f B)", intB, strB)
	}
}
