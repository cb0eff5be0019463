package loadmodel

type EWMA struct{ Weight float64 }

type Trend struct{ Window int }

type Hysteresis struct{ MinShift float64 }
