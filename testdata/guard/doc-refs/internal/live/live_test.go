package live

import "testing"

func TestLive(t *testing.T) {}

func TestLiveToo(t *testing.T) {}

type suite struct{}

// TestGone is a method, not a test function.
func (suite) TestGone() {}
