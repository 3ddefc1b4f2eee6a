package main

import (
	"bytes"
	"flag"
	"os"
	"runtime"
	"testing"

	"hbmvolt/internal/daemon"
)

// TestFlagDefaults pins `hbmvoltd -h`: the flag set main binds, printed
// the way -h prints it, must match testdata/flags.golden byte for byte.
// The golden was captured from the binary with GOMAXPROCS=2, which is
// the -j default; the test pins the same value.
func TestFlagDefaults(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	o := daemon.Defaults()
	fs := flag.NewFlagSet("hbmvoltd", flag.ContinueOnError)
	bindFlags(fs, &o)
	var got bytes.Buffer
	fs.SetOutput(&got)
	fs.PrintDefaults()

	want, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("flag defaults differ from testdata/flags.golden:\n got:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}
