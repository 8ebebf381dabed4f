package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixture copies testdata/unused — module example.com/m and, in
// caller/, a second module that calls into it — to a fresh directory
// and returns that directory's module list and allowlist path.
func fixture(t *testing.T) (modules []string, allow string) {
	t.Helper()
	dir := t.TempDir()
	src := filepath.Join("testdata", "unused")
	err := filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dir, rel), 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return []string{dir, filepath.Join(dir, "caller")}, filepath.Join(dir, "allow.txt")
}

func write(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func lint(t *testing.T, modules []string, allow string) []string {
	t.Helper()
	v, err := lintUnused(modules, allow)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// wantOne fails unless v is one violation containing every fragment.
func wantOne(t *testing.T, v []string, fragments ...string) {
	t.Helper()
	if len(v) != 1 {
		t.Fatalf("got %d violations, want 1: %q", len(v), v)
	}
	for _, f := range fragments {
		if !strings.Contains(v[0], f) {
			t.Fatalf("violation %q does not name %q", v[0], f)
		}
	}
}

// TestUnusedFixturePasses: every exported name in the fixture is used by
// a non-test file of either module — directly, through an interface
// (its own or the standard library's), through a generic instance, or
// inside its own package — or is allowlisted.
func TestUnusedFixturePasses(t *testing.T) {
	t.Parallel()
	modules, allow := fixture(t)
	if v := lint(t, modules, allow); len(v) != 0 {
		t.Fatalf("clean fixture: %q", v)
	}
}

// TestUnusedExportedFunctionFails: an exported function that only a test
// calls fails the lint, and passes once allowlisted with a reason.
func TestUnusedExportedFunctionFails(t *testing.T) {
	t.Parallel()
	modules, allow := fixture(t)
	a := filepath.Join(modules[0], "internal", "a")
	write(t, filepath.Join(a, "extra.go"), "package a\n\n// Extra is new.\nfunc Extra() {}\n")
	write(t, filepath.Join(a, "extra_test.go"), "package a\n\nimport \"testing\"\n\nfunc TestExtra(t *testing.T) { Extra() }\n")
	wantOne(t, lint(t, modules, allow), "extra.go:4", "function a.Extra has no non-test caller")

	data, err := os.ReadFile(allow)
	if err != nil {
		t.Fatal(err)
	}
	write(t, allow, string(data)+"a.Extra kept for a reason\n")
	if v := lint(t, modules, allow); len(v) != 0 {
		t.Fatalf("allowlisted: %q", v)
	}
}

// TestUnusedKinds: an unused constant, interface method and method each
// fail, an implementation of an unused interface method is unused too,
// and a function or method whose only caller is itself fails.
func TestUnusedKinds(t *testing.T) {
	t.Parallel()
	modules, allow := fixture(t)
	a := filepath.Join(modules[0], "internal", "a")
	write(t, filepath.Join(a, "kinds.go"), `package a

// Spare is never read.
const Spare = 1

// Halter is never called through.
type Halter interface{ Halt() }

// Halt implements Halter.
func (T) Halt() {}

// Loop calls only itself.
func Loop(n int) {
	if n > 0 {
		Loop(n - 1)
	}
}

// Again calls only itself, on another value.
func (T) Again(next *T) {
	if next != nil {
		next.Again(nil)
	}
}
`)
	v := lint(t, modules, allow)
	want := []string{"constant a.Spare", "interface method a.Halter.Halt", "method a.T.Halt", "function a.Loop", "method a.T.Again"}
	if len(v) != len(want) {
		t.Fatalf("got %q, want one violation each for %q", v, want)
	}
	for _, w := range want {
		found := false
		for _, got := range v {
			found = found || strings.Contains(got, w)
		}
		if !found {
			t.Fatalf("no violation for %s in %q", w, v)
		}
	}
}

// TestSecondModuleCounts: a name only the second module calls fails once
// that module is left out.
func TestSecondModuleCounts(t *testing.T) {
	t.Parallel()
	modules, allow := fixture(t)
	wantOne(t, lint(t, modules[:1], allow), "function a.OnlyCaller")
}

// TestStaleAllowlistFails: an allowlist entry fails when its name has a
// non-test caller, when it is not declared, and when it gives no reason.
func TestStaleAllowlistFails(t *testing.T) {
	t.Parallel()
	for entry, want := range map[string]string{
		"a.Used still listed": "a.Used is stale",
		"a.Gone was deleted":  "a.Gone is stale",
		"a.Allowed":           "a.Allowed gives no reason",
	} {
		modules, allow := fixture(t)
		if entry != "a.Allowed" {
			entry = "a.Allowed listed\n" + entry
		}
		write(t, allow, entry+"\n")
		wantOne(t, lint(t, modules, allow), want)
	}
}
