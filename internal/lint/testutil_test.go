package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// Stub dependency sources for snippet type-checking. The checks match on
// import path + type/method names, so minimal stubs under the real import
// paths exercise them without touching the real packages (or the slow
// source importer).
var stubSources = map[string]string{
	"ucat/internal/pager": `package pager

type PageID uint32

type Page struct {
	ID   PageID
	Data []byte
}

func (p *Page) Unpin(dirty bool) {}

type View interface {
	Fetch(pid PageID) (*Page, error)
}

type Pool struct{}

func (p *Pool) Fetch(pid PageID) (*Page, error) { return nil, nil }
func (p *Pool) NewPage() (*Page, error)         { return nil, nil }
func (p *Pool) FlushAll() error                 { return nil }
`,
	"ucat/internal/obs": `package obs

type Recorder struct{}

func NewRecorder() *Recorder { return &Recorder{} }

type Span struct{}

func (r *Recorder) StartSpan(name string) *Span { return nil }
func (s *Span) End()                            {}
func (s *Span) Attr(key, val string)            {}
`,
	"encoding/binary": `package binary

type byteOrder struct{}

func (byteOrder) Uint16(b []byte) uint16            { return 0 }
func (byteOrder) Uint32(b []byte) uint32            { return 0 }
func (byteOrder) Uint64(b []byte) uint64            { return 0 }
func (byteOrder) PutUint16(b []byte, v uint16)      {}
func (byteOrder) PutUint32(b []byte, v uint32)      {}
func (byteOrder) PutUint64(b []byte, v uint64)      {}

var LittleEndian byteOrder
var BigEndian byteOrder

func AppendUvarint(b []byte, v uint64) []byte { return b }
func Uvarint(b []byte) (uint64, int)          { return 0, 0 }
`,
	"math/rand": `package rand

type Source interface{ Int63() int64 }

func NewSource(seed int64) Source { return nil }

type Rand struct{}

func New(src Source) *Rand       { return &Rand{} }
func (r *Rand) Intn(n int) int   { return 0 }
func (r *Rand) Float64() float64 { return 0 }

func Intn(n int) int                     { return 0 }
func Float64() float64                   { return 0 }
func Seed(seed int64)                    {}
func Shuffle(n int, swap func(i, j int)) {}
`,
}

// stubImporter resolves imports from stubSources only, so snippets
// type-check hermetically.
type stubImporter struct {
	fset  *token.FileSet
	cache map[string]*types.Package
}

func (si *stubImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := si.cache[path]; ok {
		return pkg, nil
	}
	src, ok := stubSources[path]
	if !ok {
		return nil, fmt.Errorf("stub importer: unknown import %q", path)
	}
	f, err := parser.ParseFile(si.fset, path+"/stub.go", src, 0)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: si}
	pkg, err := conf.Check(path, si.fset, []*ast.File{f}, nil)
	if err != nil {
		return nil, err
	}
	si.cache[path] = pkg
	return pkg, nil
}

// loadSnippet type-checks the given files (name → source) as one package
// under the given import path and returns it ready for the checks.
func loadSnippet(t *testing.T, path string, files map[string]string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	si := &stubImporter{fset: fset, cache: make(map[string]*types.Package)}
	var astFiles []*ast.File
	for name, src := range files {
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		astFiles = append(astFiles, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: si}
	tpkg, err := conf.Check(path, fset, astFiles, info)
	if err != nil {
		t.Fatalf("type-check %s: %v", path, err)
	}
	return &Package{Path: path, Fset: fset, Files: astFiles, Types: tpkg, Info: info}
}

// runOn runs one check (through the full runner, so directives apply) over a
// single-file snippet.
func runOn(t *testing.T, check *Check, path, src string) []Diagnostic {
	t.Helper()
	pkg := loadSnippet(t, path, map[string]string{"snippet.go": src})
	return Run([]*Package{pkg}, []*Check{check})
}

// expect asserts that the diagnostics match the wanted substrings, in order.
func expect(t *testing.T, diags []Diagnostic, want []string) {
	t.Helper()
	if len(diags) != len(want) {
		t.Fatalf("got %d diagnostics, want %d:\n%v", len(diags), len(want), diags)
	}
	for i, w := range want {
		if got := diags[i].String(); !strings.Contains(got, w) {
			t.Errorf("diagnostic %d = %q, want it to contain %q", i, got, w)
		}
	}
}
