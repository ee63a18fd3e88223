package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestOutputGolden pins the program's whole output byte for byte against
// testdata/output.golden. Seven rows of the rendered Tables II and III end
// in padding blanks, which an Example's // Output: comment cannot hold
// (gofmt strips trailing spaces from comments), so the pin is a file. To
// re-record it on purpose, delete the file, run the test once (it writes
// the file and fails), then review the diff.
func TestOutputGolden(t *testing.T) {
	got := captureStdout(t, main)
	path := filepath.Join("testdata", "output.golden")
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s did not exist; recorded it from this tree — review and re-run", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// what it wrote.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	read := make(chan []byte)
	go func() {
		out, _ := io.ReadAll(r)
		read <- out
	}()
	fn()
	w.Close()
	return string(<-read)
}
