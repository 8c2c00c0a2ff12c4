package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMainEnv, set to 1 in a test binary's environment, makes TestMain
// run graphgen's main instead of the tests, so a test can run the command
// as a child process of its own binary and read its exit status.
const runMainEnv = "GRAPHGEN_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFlagsRejectedBeforeWriting runs graphgen on bad generator input and
// expects exit status 2 with a message naming the valid values, and the
// -o file as it was before the run: the command used to panic on an
// unknown -graph or a negative -n after truncating that file, and -stream
// truncated it before finding that the generator cannot stream. A panic
// exits with status 2 as well, so its stack trace must not appear. The
// last case is a valid run that writes the file.
func TestFlagsRejectedBeforeWriting(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.txt")
	const before = "left alone\n"
	cases := []struct {
		args   []string
		code   int
		stderr string
		file   string
	}{
		{[]string{"-graph", "bogus", "-o", out}, 2, `unknown -graph "bogus" (valid: gnp-sparse, gnp-dense, regular,`, before},
		{[]string{"-n", "-5", "-stats", "-o", out}, 2, "-n must be at least 0, got -5", before},
		{[]string{"-graph", "regular", "-n", "-1", "-o", out}, 2, "-n must be at least 0", before},
		{[]string{"-stream", "-graph", "mixed", "-o", out}, 2, "supported: gnp-sparse, gnp-dense, chunglu", before},
		{[]string{"-graph", "cycle", "-n", "3", "-o", out}, 0, "", "3 3\n0 1\n0 2\n1 2\n"},
	}
	for _, c := range cases {
		if err := os.WriteFile(out, []byte(before), 0o644); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(os.Args[0], c.args...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		code := 0
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		label := "graphgen " + strings.Join(c.args, " ")
		got := stderr.String()
		if code != c.code || !strings.Contains(got, c.stderr) || strings.Contains(got, "panic") {
			t.Errorf("%s: exit %d, stderr %q; want exit %d, stderr containing %q", label, code, got, c.code, c.stderr)
		}
		if b, err := os.ReadFile(out); err != nil || string(b) != c.file {
			t.Errorf("%s: -o file holds %q (%v), want %q", label, b, err, c.file)
		}
	}
}
