package lint

import "testing"

func TestSharedPool(t *testing.T) {
	tests := []struct {
		name string
		path string
		src  string
		want []string
	}{
		{
			name: "NewPool in server flagged",
			path: "ucat/internal/server",
			src: `package server

import "ucat/internal/pager"

func build(store *pager.Store) *pager.Pool {
	return pager.NewPool(store, 100)
}
`,
			want: []string{"server constructs a private pool view via pager.NewPool"},
		},
		{
			name: "NewSharedPool in server sanctioned",
			path: "ucat/internal/server",
			src: `package server

import "ucat/internal/pager"

func build(store *pager.Store) *pager.Pool {
	return pager.NewSharedPool(store, 400, 8, pager.CLOCK)
}
`,
			want: nil,
		},
		{
			name: "NewPool outside the server not flagged",
			path: "ucat/internal/exp",
			src: `package exp

import "ucat/internal/pager"

func freshView(store *pager.Store) *pager.Pool {
	return pager.NewPool(store, 100)
}
`,
			want: nil,
		},
		{
			name: "ignore directive suppresses",
			path: "ucat/internal/server",
			src: `package server

import "ucat/internal/pager"

func diagnosticView(store *pager.Store) *pager.Pool {
	//ucatlint:ignore sharedpool offline diagnostic endpoint, never on the request path
	return pager.NewPool(store, 10)
}
`,
			want: nil,
		},
	}
	check := SharedPoolCheck()
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			expect(t, runOn(t, check, tt.path, tt.src), tt.want)
		})
	}
}
