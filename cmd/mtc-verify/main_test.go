package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"mtc/internal/history"
)

// save writes h to a file named name in a fresh temp dir; the extension
// picks the codec.
func save(t *testing.T, name string, h *history.History) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := history.SaveFile(path, h); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRun(t *testing.T) {
	clean := save(t, "clean.json", history.SerialHistory(10, "x", "y"))
	cleanText := save(t, "clean.txt", history.SerialHistory(10, "x", "y"))
	skew := save(t, "skew.json", history.FixtureByName("WriteSkew").H)
	skewStream := save(t, "skew.ndjson", history.FixtureByName("WriteSkew").H)
	cases := []struct {
		name string
		args []string
		code int
		out  string // substring of stdout
	}{
		{"lowercase level", []string{"-level", "si", clean}, 0, "[mtc] history satisfies SI"},
		{"text codec sniffed", []string{"-level", "SER", cleanText}, 0, "[mtc] history satisfies SER"},
		{"elle", []string{"-level", "SER", "-checker", "elle", clean}, 0, "[elle] history satisfies SER"},
		{"weak level engine", []string{"-level", "rc", "-checker", "rc", clean}, 0, "[rc] history satisfies RC"},
		{"violation", []string{"-level", "SER", skew}, 1, "[mtc] history VIOLATES SER"},
		{"stream violation", []string{"-level", "ser", "-stream", skewStream}, 1, "VIOLATES"},
		{"unknown level", []string{"-level", "NOPE", clean}, 2, ""},
		{"level the engine lacks", []string{"-level", "RC", clean}, 2, ""},
		{"unknown checker", []string{"-checker", "elle-wr", clean}, 2, ""},
		{"missing file argument", []string{"-level", "SI"}, 2, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, tc.code, stdout.String(), stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.out) {
				t.Fatalf("stdout %q does not contain %q", stdout.String(), tc.out)
			}
			if code == 2 && stderr.Len() == 0 {
				t.Fatal("an error exit must say why on stderr")
			}
		})
	}
}
