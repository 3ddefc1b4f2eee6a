package hbmvolt

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func TestRenderTempStudy(t *testing.T) {
	sys := newSystem(t, Config{})
	var buf bytes.Buffer
	study, err := sys.RenderTempStudy(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(study.Points) == 0 {
		t.Fatal("no points")
	}
	out := buf.String()
	if !strings.Contains(out, "35") || !strings.Contains(out, "Vmin") {
		t.Fatalf("temp table malformed:\n%s", out)
	}
	// The paper's operating point must reproduce its guardband.
	for _, pt := range study.Points {
		if pt.TempC == 35 && pt.VMin != VMin {
			t.Fatalf("35°C VMin = %v", pt.VMin)
		}
	}
}

func TestRenderCapacityStudy(t *testing.T) {
	sys := newSystem(t, Config{})
	var buf bytes.Buffer
	study, err := sys.RenderCapacityStudy(&buf)
	if err != nil {
		t.Fatal(err)
	}
	pt := study.At(0.92)
	if pt == nil {
		t.Fatal("missing 0.92V point")
	}
	if pt.RowGranularBytes < 0.85*study.TotalBytes {
		t.Fatalf("row recovery at 0.92V = %v of %v", pt.RowGranularBytes, study.TotalBytes)
	}
	if !strings.Contains(buf.String(), "recovered") {
		t.Fatal("capacity table malformed")
	}
}

// Golden tests pin the fully deterministic analytic figures: any change
// to the calibration, the analytics, or the rendering shows up as a
// diff. Regenerate with: go test -run TestGolden -update .
func TestGoldenFigures(t *testing.T) {
	sys := newSystem(t, Config{})
	cases := []struct {
		name   string
		render func(*bytes.Buffer) error
	}{
		{"fig4", func(b *bytes.Buffer) error { _, err := sys.RenderFig4(b); return err }},
		{"fig5", func(b *bytes.Buffer) error { return sys.RenderFig5(b) }},
		{"fig6", func(b *bytes.Buffer) error { return sys.RenderFig6(b) }},
		{"ecc", func(b *bytes.Buffer) error { _, err := sys.RenderECCStudy(b); return err }},
		{"temp", func(b *bytes.Buffer) error { _, err := sys.RenderTempStudy(b); return err }},
		{"capacity", func(b *bytes.Buffer) error { _, err := sys.RenderCapacityStudy(b); return err }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := c.render(&buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", c.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s output drifted from golden; run with -update after verifying the change", c.name)
			}
		})
	}
}
