package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysistest"
)

func TestCtxFlow(t *testing.T) {
	analysistest.Run(t, "testdata", lint.CtxFlow,
		"repro/internal/plan/ctxpos",
		"repro/cmd/fakecli",
	)
}

func TestGoroutinePool(t *testing.T) {
	analysistest.Run(t, "testdata", lint.GoroutinePool,
		"repro/internal/cohort/gofire",
		"repro/internal/cohort",      // parallel.go: the sanctioned spawn file
		"repro/internal/obs/bgspawn", // out-of-scope package
	)
}

func TestCommitProto(t *testing.T) {
	analysistest.Run(t, "testdata", lint.CommitProto,
		"repro/internal/storage/commitpos",
		"repro/internal/ingest/journalfix",
	)
}

func TestChunkPin(t *testing.T) {
	analysistest.Run(t, "testdata", lint.ChunkPin,
		"repro/internal/cohort/pinuse",
	)
}

func TestErrCode(t *testing.T) {
	// Order matters: the engine fixture exports its declarations as a
	// package fact the server fixtures then import.
	analysistest.Run(t, "testdata", lint.ErrCode,
		"repro/internal/ingest/errdecls",
		"repro/internal/server/codecheck",
		"repro/internal/server/codeok",
		"repro/internal/server/nocode",
	)
}

func TestObsNames(t *testing.T) {
	analysistest.Run(t, "testdata", lint.ObsNames,
		"repro/internal/obs/regs",
		"repro/internal/plan/metricuse",
	)
}

func TestParseAllowDirective(t *testing.T) {
	cases := []struct {
		text     string
		ok       bool
		analyzer string
		reason   string
	}{
		{"//lint:allow goroutinepool bounded fan-out", true, "goroutinepool", "bounded fan-out"},
		{"//lint:allow ctxflow   reason with   spaces ", true, "ctxflow", "reason with   spaces"},
		{"//lint:allow goroutinepool", false, "goroutinepool", ""},
		{"//lint:allow", false, "", ""},
		{"// lint:allow goroutinepool reason", false, "", ""},
		{"//nolint:allow goroutinepool reason", false, "", ""},
		{"// ordinary comment", false, "", ""},
	}
	for _, c := range cases {
		d, ok := lint.ParseAllowDirective(c.text)
		if ok != c.ok {
			t.Errorf("ParseAllowDirective(%q) ok = %v, want %v", c.text, ok, c.ok)
			continue
		}
		if ok && (d.Analyzer != c.analyzer || d.Reason != c.reason) {
			t.Errorf("ParseAllowDirective(%q) = {%q %q}, want {%q %q}",
				c.text, d.Analyzer, d.Reason, c.analyzer, c.reason)
		}
	}
}

// TestLintRepoClean is the self-check the CI gate relies on: the full suite
// over the whole repository must come back empty. A failure here names the
// offending position — fix the code or justify it with //lint:allow.
func TestLintRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list over the whole module")
	}
	root := moduleRoot(t)
	findings, err := lint.LintPackages(root, []string{"./..."}, lint.Analyzers())
	if err != nil {
		t.Fatalf("linting repository: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod found above the test directory")
		}
		dir = parent
	}
}

// FuzzAllowDirective hardens the directive parser: arbitrary comment text
// must never panic, and a well-formed result must satisfy the invariants
// the suppression index depends on.
func FuzzAllowDirective(f *testing.F) {
	f.Add("//lint:allow goroutinepool bounded fan-out joined below")
	f.Add("//lint:allow commitproto callers batch one directory sync after their last rename")
	f.Add("//lint:allow ctxflow Compact is the documented context-free shim")
	f.Add("//lint:allow goroutinepool")
	f.Add("//lint:allow")
	f.Add("// want \"bare goroutine in an engine package\"")
	f.Add("//lint:allow  double  spaces   everywhere")
	f.Add("//lint:allowx not really a directive")
	f.Fuzz(func(t *testing.T, text string) {
		d, ok := lint.ParseAllowDirective(text)
		if !ok {
			return
		}
		if !strings.HasPrefix(text, "//lint:allow") {
			t.Fatalf("ok directive from text without the prefix: %q", text)
		}
		if d.Analyzer == "" || d.Reason == "" {
			t.Fatalf("ok directive with empty analyzer or reason: %q -> %+v", text, d)
		}
	})
}
