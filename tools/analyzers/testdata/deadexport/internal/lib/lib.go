// Package lib holds one export of each kind the dead-export check must tell
// apart.
package lib

// Used is called by app.
func Used() int { return helper() }

// Dead is called by nothing.
func Dead() int { return Dead() + 1 }

// TestOnly is called only by lib_test.go.
func TestOnly() int { return 2 }

// Kept is dead, but the fixture's allowlist covers it.
const Kept = 3

// Exported is used by app; its method Dead is not.
type Exported struct{}

// Dead is a method nothing calls.
func (*Exported) Dead() {}

// impl is unexported, so its exported method is nobody else's business.
type impl struct{}

// Method is on an unexported type and must not be flagged.
func (impl) Method() {}

func helper() int { return 1 }
