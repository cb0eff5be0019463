module softbarrier/bench

go 1.22

require softbarrier v0.0.0

replace softbarrier => ../
