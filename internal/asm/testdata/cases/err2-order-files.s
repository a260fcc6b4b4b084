_start:
	nop
;;; file b.s
	j nowhere
;;; file c.s
	addi a0, a0, 9000
