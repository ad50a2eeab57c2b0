// Package docs exercises the Docs analyzer.
package docs

// Documented carries a doc comment and passes.
func Documented() {}

func Exported() {} // want `exported Exported has no doc comment`

// want:+2 `exported Thing has no doc comment`

type Thing struct{}

// want:+2 `exported Limit has no doc comment`

var Limit = 3

// Block docs cover every spec inside the group.
const (
	A = 1
	B = 2
)

func unexported() {}
