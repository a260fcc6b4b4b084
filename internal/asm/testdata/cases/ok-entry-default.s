	nop
	halt
