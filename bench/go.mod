module dqemu/bench

go 1.22

require dqemu v0.0.0

replace dqemu => ../
