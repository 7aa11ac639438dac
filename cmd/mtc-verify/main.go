// Command mtc-verify checks a saved history file against an isolation
// level using any registered checker (see mtc -checkers). The file's
// codec — JSON, text, NDJSON or MTCB, optionally gzipped — is detected
// from its content.
//
// Examples:
//
//	mtc-verify -level SI history.json
//	mtc-verify -level SER -checker cobra history.txt
//	mtc-verify -level SI -stream -window 1024 capture.ndjson.gz
//	mtc-verify -level SER -stream capture.mtcb
//
// It exits 0 when the history satisfies the level, 1 on a violation and
// 2 on a usage, input or engine error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"mtc/internal/checker"
	"mtc/internal/core"
	"mtc/internal/history"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, verifies the named file and prints the verdict to
// stdout; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mtc-verify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		level  = fs.String("level", "SI", "isolation level (any case): "+checker.LevelNames(checker.AllLevels()))
		name   = fs.String("checker", "mtc", "verification engine (see mtc -checkers)")
		stream = fs.Bool("stream", false, "verify an NDJSON or MTCB capture transaction-by-transaction without loading it (codec sniffed by content; mtc checker, SER or SI)")
		window = fs.Int("window", 0, "with -stream: compact the checker to this window (0 = unbounded, always exact; windowed verdicts are exact for captures recorded in ingestion order — for session-grouped files the window must exceed the capture's commit-to-record skew or stale reads report ThinAirRead)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: mtc-verify [-level L] [-checker C] [-stream [-window N]] <history-file>")
		return 2
	}
	ok, err := verify(fs.Arg(0), *name, *level, *stream, *window, stdout)
	switch {
	case err != nil:
		fmt.Fprintf(stderr, "mtc-verify: %v\n", err)
		return 2
	case !ok:
		return 1
	}
	return 0
}

// verify checks the history file at path and prints the verdict to
// stdout. The error marks a usage, input or engine failure, not a
// verdict.
func verify(path, name, level string, stream bool, window int, stdout io.Writer) (bool, error) {
	lvl, err := checker.ParseLevel(level)
	if err != nil {
		return false, err
	}
	if stream {
		return streamVerify(path, lvl, window, stdout)
	}
	h, err := history.LoadFile(path)
	if err != nil {
		return false, fmt.Errorf("load: %w", err)
	}
	rep, err := checker.Run(context.Background(), name, h, checker.Options{Level: lvl})
	if err != nil {
		return false, err
	}
	if rep.OK {
		fmt.Fprintf(stdout, "[%s] history satisfies %s (%d txns)\n", rep.Checker, rep.Level, rep.Txns)
		return true, nil
	}
	fmt.Fprintf(stdout, "[%s] history VIOLATES %s:\n", rep.Checker, rep.Level)
	for _, a := range rep.Anomalies {
		fmt.Fprintf(stdout, "  %s\n", a)
	}
	if rep.Detail != "" {
		fmt.Fprintf(stdout, "  %s\n", rep.Detail)
	}
	return false, nil
}

// streamVerify feeds an NDJSON or MTCB capture straight into the online
// checker: the codec is sniffed by content (gzip unwrapped first), one
// transaction is held at a time, and with a window the checker itself
// stays bounded too, so captures of any length verify in near-constant
// memory.
func streamVerify(path string, lvl core.Level, window int, stdout io.Writer) (bool, error) {
	if lvl != core.SER && lvl != core.SI {
		return false, fmt.Errorf("-stream checks SER or SI")
	}
	f, err := os.Open(path)
	if err != nil {
		return false, fmt.Errorf("open: %w", err)
	}
	defer f.Close()
	sr, err := history.NewAutoStreamReader(f)
	if err != nil {
		return false, fmt.Errorf("stream: %w", err)
	}
	r, err := core.CheckStreamCtx(context.Background(), sr, lvl, window, 0)
	if err != nil {
		return false, fmt.Errorf("stream: %w", err) // codec/read error, not a verdict
	}
	fmt.Fprintln(stdout, r.Explain())
	return r.OK, nil
}
