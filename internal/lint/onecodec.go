package lint

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// gobExempt lists the slash-separated directories, relative to the
// module root, whose non-test code may still import encoding/gob: the
// data-structure snapshot serializers (a persisted format off every
// RPC path) and the examples, whose user-defined partitions choose
// their own snapshot encoding.
var gobExempt = []string{"internal/ds", "examples"}

// GobImports walks the Go tree under the module root and reports every
// non-test file outside the exempt directories that imports
// encoding/gob. The system has one wire codec (internal/codec); a gob
// import elsewhere is a second one creeping back in. Hidden
// directories and testdata are skipped.
func GobImports(root string) ([]Violation, error) {
	fset := token.NewFileSet()
	var violations []Violation
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			name := d.Name()
			if rel != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			for _, e := range gobExempt {
				if rel == e {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "encoding/gob" {
				violations = append(violations, Violation{
					Pos:  fset.Position(imp.Pos()),
					Name: "encoding/gob",
					Msg:  "is imported; encode messages with internal/codec",
				})
			}
		}
		return nil
	})
	sort.Slice(violations, func(i, j int) bool { return violations[i].Pos.Filename < violations[j].Pos.Filename })
	return violations, err
}
