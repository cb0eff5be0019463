// Package live is the fixture's one package. Its test is `TestLive`, its
// example `ExampleGone`, its data `internal/live/testdata`, and its
// design §1.1 and §4.4.
package live

// Live is documented in DESIGN §1; an identifier's comment may name
// `TestGone`, but not §2.1.
func Live() {}
