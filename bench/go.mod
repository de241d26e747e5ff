module govhdl/bench

go 1.22

require govhdl v0.0.0

replace govhdl => ../
