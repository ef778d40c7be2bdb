module optiql/benchmark

go 1.24

require optiql v0.0.0

replace optiql => ../
