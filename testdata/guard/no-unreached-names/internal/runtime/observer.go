package runtime

type Extra struct{ Swaps, Adaptations uint64 }
