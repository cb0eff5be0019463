package barriersim

type Config struct{ CommCost float64 }

type Sim struct{ commCost float64 }

type PolicyRun struct{ Rebuilds int }
