package wire

// TCP keeps Go's default, TCP_NODELAY: no Nagle option.
type TCP struct{ Nagle bool }
