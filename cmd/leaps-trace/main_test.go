package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/etl"
)

func TestRunGeneratesThreeLogs(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{"-dataset", "vim_reverse_tcp", "-out", dir, "-seed", "3"})
	if err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{"benign", "mixed", "malicious"} {
		path := filepath.Join(dir, "vim_reverse_tcp_"+suffix+".letl")
		info, err := os.Stat(path)
		if err != nil {
			t.Fatalf("missing %s: %v", path, err)
		}
		if info.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
}

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("missing -dataset accepted")
	}
	if err := run([]string{"-dataset", "nope"}); err == nil {
		t.Error("unknown dataset accepted")
	}
	if err := run([]string{"-bogusflag"}); err == nil {
		t.Error("bogus flag accepted")
	}
	if err := run([]string{"-dataset", "vim_reverse_tcp", "-inject", "warp:0.5"}); err == nil {
		t.Error("unknown fault spec accepted")
	}
}

func TestRunInjectCorruptsFiles(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{
		"-dataset", "vim_reverse_tcp", "-out", dir, "-seed", "5",
		"-inject", "bitflip:0.04,garbage:0.03", "-inject-seed", "7",
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, "vim_reverse_tcp_malicious.letl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := etl.Parse(f); err == nil {
		t.Fatal("strict parse accepted the injected file")
	}
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	raw, err := etl.ParseWith(f, etl.ParseOpts{Lenient: true})
	if err != nil {
		t.Fatalf("lenient parse of injected file: %v", err)
	}
	if len(raw.ErrorLog) == 0 {
		t.Error("injected corruption not reported in ErrorLog")
	}
	log, err := raw.SliceApp("reverse_tcp")
	if err != nil {
		t.Fatal(err)
	}
	if log.Len() == 0 {
		t.Error("no events recovered from injected file")
	}
}

func TestRunSystemWide(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-dataset", "vim_reverse_tcp", "-out", dir, "-seed", "4", "-system"}); err != nil {
		t.Fatal(err)
	}
	// The system-wide benign file holds three processes; slicing the
	// application back out recovers its events only.
	f, err := os.Open(filepath.Join(dir, "vim_reverse_tcp_benign.letl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	raw, err := etl.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	// The application and the two background processes hold every
	// event of the file.
	total := 0
	for _, app := range []string{"vim.exe", "svchost.exe", "explorer.exe"} {
		l, err := raw.SliceApp(app)
		if err != nil {
			t.Fatalf("process %s missing from the system file: %v", app, err)
		}
		total += l.Len()
	}
	if total != raw.TotalEvents() {
		t.Fatalf("the three processes hold %d of the file's %d events", total, raw.TotalEvents())
	}
	vim, err := raw.SliceApp("vim.exe")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range vim.Events[:50] {
		for _, fr := range e.Stack {
			if fr.Module == "svchost.exe" || fr.Module == "explorer.exe" {
				t.Fatal("application slice contains background frames")
			}
		}
	}
}
