module kbtim/benchmark

go 1.24

require kbtim v0.0.0

replace kbtim => ../
