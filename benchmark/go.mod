module fubar/benchmark

go 1.24

require fubar v0.0.0

replace fubar => ../
