package softbarrier

import rt "softbarrier/internal/runtime"

func EstimateSyncDelay(p, d int, sigma, tc float64) (float64, error) { return 0, nil }

func ExpectedLastArrival(p int, sigma float64) float64 { return 0 }

type WaitPolicy rt.WaitPolicy

func DefaultWaitPolicy() WaitPolicy { return WaitPolicy(rt.DefaultWaitPolicy()) }

func WithWaitPolicy(p WaitPolicy) Option { return nil }

func WithPlacement(order []int) Option { return func(o *options) { o.placeOrder = order } }
