package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoIsCtxFirst runs the checker against the real client package
// and the repo root: the public surface must stay context-first.
func TestRepoIsCtxFirst(t *testing.T) {
	for _, dir := range []string{"../client", "../.."} {
		violations, err := CtxFirst(dir, DefaultAllow())
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, v := range violations {
			t.Errorf("%s", v)
		}
	}
}

// TestCtxFirstCatchesViolations feeds the checker synthetic source
// covering each rule: missing ctx flagged, also on a Deprecated method
// or a *NoCtx view type; allowlisted and unexported declarations
// skipped; Connect* functions checked even without a receiver.
func TestCtxFirstCatchesViolations(t *testing.T) {
	dir := t.TempDir()
	src := `package fake

import "context"

type Client struct{}

func (c *Client) Fetch(key string) error { return nil } // violation
func (c *Client) Store(ctx context.Context, key string) error { return nil }
func (c *Client) Close() error { return nil } // allowlisted below
func (c *Client) helper(key string) error { return nil }

// Deprecated: use Fetch with a context.
func (c *Client) FetchOld(key string) error { return nil }

type ClientNoCtx struct{}

func (v ClientNoCtx) Fetch(key string) error { return nil }

type internalThing struct{}

func (i internalThing) Do(key string) error { return nil }

func Connect(addr string) (*Client, error) { return nil, nil } // violation
func ConnectMulti(ctx context.Context, addrs []string) (*Client, error) { return nil, nil }
func Helper(x int) int { return x }
`
	if err := os.WriteFile(filepath.Join(dir, "fake.go"), []byte(src), 0644); err != nil {
		t.Fatal(err)
	}
	violations, err := CtxFirst(dir, map[string]bool{"Client.Close": true})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, v := range violations {
		got = append(got, v.Name)
	}
	want := []string{"Client.Fetch", "Client.FetchOld", "ClientNoCtx.Fetch", "Connect"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("violations = %v, want %v", got, want)
	}
}

// TestRepoHasOneCodec runs the gob-import check over the module: only
// the exempt directories and tests may import encoding/gob.
func TestRepoHasOneCodec(t *testing.T) {
	violations, err := GobImports("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range violations {
		t.Errorf("%s", v)
	}
}

// TestGobImportsCatches feeds the check a synthetic tree: gob imports
// in ordinary code are flagged; tests, testdata and exempt directories
// are not.
func TestGobImportsCatches(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"a/uses.go":           "package a\n\nimport \"encoding/gob\"\n\nvar _ = gob.NewEncoder\n",
		"a/uses_test.go":      "package a\n\nimport _ \"encoding/gob\"\n",
		"a/clean.go":          "package a\n\nimport _ \"encoding/json\"\n",
		"a/testdata/x.go":     "package x\n\nimport _ \"encoding/gob\"\n",
		"internal/ds/snap.go": "package ds\n\nimport _ \"encoding/gob\"\n",
		"examples/x/main.go":  "package main\n\nimport _ \"encoding/gob\"\n",
		"b/renamed.go":        "package b\n\nimport g \"encoding/gob\"\n\nvar _ = g.NewDecoder\n",
	}
	for name, src := range files {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	violations, err := GobImports(root)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, v := range violations {
		rel, _ := filepath.Rel(root, v.Pos.Filename)
		got = append(got, filepath.ToSlash(rel))
	}
	want := []string{"a/uses.go", "b/renamed.go"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("violations in %v, want %v", got, want)
	}
}
