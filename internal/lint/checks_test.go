package lint

import "testing"

const testPkgPath = "ucat/internal/testpkg"

func TestFloatcmp(t *testing.T) {
	tests := []struct {
		name string
		path string
		src  string
		want []string
	}{
		{
			name: "equality on float64 flagged",
			path: testPkgPath,
			src: `package p
func f(a, b float64) bool { return a == b }
`,
			want: []string{"exact == on floating-point operands"},
		},
		{
			name: "inequality on float32 flagged",
			path: testPkgPath,
			src: `package p
func f(a, b float32) bool { return a != b }
`,
			want: []string{"exact != on floating-point operands"},
		},
		{
			name: "comparison against constant flagged",
			path: testPkgPath,
			src: `package p
func f(a float64) bool { return a == 0.3 }
`,
			want: []string{"exact == on floating-point operands"},
		},
		{
			name: "switch over float tag flagged",
			path: testPkgPath,
			src: `package p
func f(a float64) int {
	switch a {
	case 0.5:
		return 1
	}
	return 0
}
`,
			want: []string{"switch over a floating-point value"},
		},
		{
			name: "integer comparison not flagged",
			path: testPkgPath,
			src: `package p
func f(a, b int) bool { return a == b }
`,
			want: nil,
		},
		{
			name: "float ordering not flagged",
			path: testPkgPath,
			src: `package p
func f(a, b float64) bool { return a < b }
`,
			want: nil,
		},
		{
			name: "constant-folded comparison not flagged",
			path: testPkgPath,
			src: `package p
const eq = 1.0 == 2.0
`,
			want: nil,
		},
		{
			name: "epsilon helper exempt",
			path: testPkgPath,
			src: `package p
func approxEqual(a, b, eps float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= eps || a == b
}
func almostZero(a float64) bool  { return a == 0 }
func nearIdentical(a, b float64) bool { return a == b }
func withinEps(a, b float64) bool     { return a == b }
`,
			want: nil,
		},
		{
			name: "ignore directive on same line",
			path: testPkgPath,
			src: `package p
func f(a, b float64) bool {
	return a == b //ucatlint:ignore floatcmp bitwise equality intended for the test
}
`,
			want: nil,
		},
		{
			name: "ignore directive on previous line",
			path: testPkgPath,
			src: `package p
func f(a, b float64) bool {
	//ucatlint:ignore floatcmp bitwise equality intended for the test
	return a == b
}
`,
			want: nil,
		},
		{
			name: "directive for other check does not suppress",
			path: testPkgPath,
			src: `package p
func f(a, b float64) bool {
	//ucatlint:ignore globalrand wrong check named here
	return a == b
}
`,
			want: []string{"exact == on floating-point operands"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			expect(t, runOn(t, FloatcmpCheck(), tt.path, tt.src), tt.want)
		})
	}
}

func TestFloatcmpSkipsTestFiles(t *testing.T) {
	pkg := loadSnippet(t, testPkgPath, map[string]string{
		"p_test.go": `package p
func f(a, b float64) bool { return a == b }
`,
	})
	expect(t, Run([]*Package{pkg}, []*Check{FloatcmpCheck()}), nil)
}

func TestDroppedErr(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want []string
	}{
		{
			name: "bare Close flagged",
			src: `package p
type f struct{}
func (f) Close() error { return nil }
func g(v f) { v.Close() }
`,
			want: []string{"call Close discards its error"},
		},
		{
			name: "deferred Close flagged",
			src: `package p
type f struct{}
func (f) Close() error { return nil }
func g(v f) { defer v.Close() }
`,
			want: []string{"defer Close discards its error"},
		},
		{
			name: "go Flush flagged",
			src: `package p
type f struct{}
func (f) Flush() error { return nil }
func g(v f) { go v.Flush() }
`,
			want: []string{"go Flush discards its error"},
		},
		{
			name: "FlushAll and Sync and Clear flagged",
			src: `package p
type f struct{}
func (f) FlushAll() error { return nil }
func (f) Sync() error     { return nil }
func (f) Clear() error    { return nil }
func g(v f) {
	v.FlushAll()
	v.Sync()
	v.Clear()
}
`,
			want: []string{"call FlushAll", "call Sync", "call Clear"},
		},
		{
			name: "handled error not flagged",
			src: `package p
type f struct{}
func (f) Close() error { return nil }
func g(v f) error { return v.Close() }
`,
			want: nil,
		},
		{
			name: "checked error not flagged",
			src: `package p
type f struct{}
func (f) Close() error { return nil }
func g(v f) {
	if err := v.Close(); err != nil {
		panic(err)
	}
}
`,
			want: nil,
		},
		{
			name: "explicit blank assignment not flagged",
			src: `package p
type f struct{}
func (f) Close() error { return nil }
func g(v f) { _ = v.Close() }
`,
			want: nil,
		},
		{
			name: "error-free release method not flagged",
			src: `package p
type f struct{}
func (f) Unpin(dirty bool) {}
func g(v f) { v.Unpin(true) }
`,
			want: nil,
		},
		{
			name: "non-release method not flagged",
			src: `package p
type f struct{}
func (f) Write(b []byte) error { return nil }
func g(v f) { v.Write(nil) }
`,
			want: nil,
		},
		{
			name: "annotated defer suppressed",
			src: `package p
type f struct{}
func (f) Close() error { return nil }
func g(v f) {
	defer v.Close() //ucatlint:ignore droppederr read-only handle
}
`,
			want: nil,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			expect(t, runOn(t, DroppedErrCheck(), testPkgPath, tt.src), tt.want)
		})
	}
}

func TestGlobalRand(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want []string
	}{
		{
			name: "global Intn flagged",
			src: `package p
import "math/rand"
func f() int { return rand.Intn(10) }
`,
			want: []string{"global math/rand.Intn"},
		},
		{
			name: "global Float64 and Seed flagged",
			src: `package p
import "math/rand"
func f() float64 {
	rand.Seed(42)
	return rand.Float64()
}
`,
			want: []string{"global math/rand.Seed", "global math/rand.Float64"},
		},
		{
			name: "aliased import still flagged",
			src: `package p
import mrand "math/rand"
func f() int { return mrand.Intn(10) }
`,
			want: []string{"global math/rand.Intn"},
		},
		{
			name: "seeded Rand not flagged",
			src: `package p
import "math/rand"
func f() int {
	r := rand.New(rand.NewSource(42))
	return r.Intn(10)
}
`,
			want: nil,
		},
		{
			name: "threaded Rand parameter not flagged",
			src: `package p
import "math/rand"
func f(r *rand.Rand) float64 { return r.Float64() }
`,
			want: nil,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			expect(t, runOn(t, GlobalRandCheck(), testPkgPath, tt.src), tt.want)
		})
	}
}

func TestGlobalRandSkipsTestFiles(t *testing.T) {
	pkg := loadSnippet(t, testPkgPath, map[string]string{
		"p_test.go": `package p
import "math/rand"
func f() int { return rand.Intn(10) }
`,
	})
	expect(t, Run([]*Package{pkg}, []*Check{GlobalRandCheck()}), nil)
}

func TestPinleak(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want []string
	}{
		{
			name: "fetch without unpin flagged",
			src: `package p
import "ucat/internal/pager"
func f(p *pager.Pool) ([]byte, error) {
	pg, err := p.Fetch(1)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 8)
	copy(out, pg.Data)
	return out, nil
}
`,
			want: []string{"page from Fetch is never Unpinned in f"},
		},
		{
			name: "newpage without unpin flagged",
			src: `package p
import "ucat/internal/pager"
func f(p *pager.Pool) (pager.PageID, error) {
	pg, err := p.NewPage()
	if err != nil {
		return 0, err
	}
	return pg.ID, nil
}
`,
			want: []string{"page from NewPage is never Unpinned in f"},
		},
		{
			name: "discarded page flagged",
			src: `package p
import "ucat/internal/pager"
func f(p *pager.Pool) {
	_, _ = p.NewPage()
}
`,
			want: []string{"NewPage result discarded"},
		},
		{
			name: "deferred unpin not flagged",
			src: `package p
import "ucat/internal/pager"
func f(p *pager.Pool) error {
	pg, err := p.Fetch(1)
	if err != nil {
		return err
	}
	defer pg.Unpin(false)
	return nil
}
`,
			want: nil,
		},
		{
			name: "plain unpin not flagged",
			src: `package p
import "ucat/internal/pager"
func f(p *pager.Pool) error {
	pg, err := p.Fetch(1)
	if err != nil {
		return err
	}
	pg.Unpin(true)
	return nil
}
`,
			want: nil,
		},
		{
			name: "unpin inside closure not flagged",
			src: `package p
import "ucat/internal/pager"
func f(p *pager.Pool) (func(), error) {
	pg, err := p.Fetch(1)
	if err != nil {
		return nil, err
	}
	return func() { pg.Unpin(false) }, nil
}
`,
			want: nil,
		},
		{
			name: "page escaping via return not flagged",
			src: `package p
import "ucat/internal/pager"
func f(p *pager.Pool) (*pager.Page, error) {
	pg, err := p.Fetch(1)
	return pg, err
}
`,
			want: nil,
		},
		{
			name: "page escaping as argument not flagged",
			src: `package p
import "ucat/internal/pager"
func release(pg *pager.Page) { pg.Unpin(false) }
func f(p *pager.Pool) error {
	pg, err := p.Fetch(1)
	if err != nil {
		return err
	}
	release(pg)
	return nil
}
`,
			want: nil,
		},
		{
			name: "annotated leak suppressed",
			src: `package p
import "ucat/internal/pager"
func f(p *pager.Pool) error {
	//ucatlint:ignore pinleak page intentionally held for the process lifetime
	pg, err := p.Fetch(1)
	if err != nil {
		return err
	}
	_ = pg.ID
	return nil
}
`,
			want: nil,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			expect(t, runOn(t, PinleakCheck(), testPkgPath, tt.src), tt.want)
		})
	}
}
