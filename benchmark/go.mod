module logrec/benchmark

go 1.22

require logrec v0.0.0

replace logrec => ../
