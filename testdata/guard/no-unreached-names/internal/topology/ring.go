package topology

type Ring struct{}

func NewRing() *Ring { return &Ring{} }
