module nvmeopf/bench

go 1.22

require nvmeopf v0.0.0

replace nvmeopf => ../
