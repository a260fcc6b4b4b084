
_start:
1:	nop
	j 1f
;;; file second.s
1:	nop
	j 1b
	j 1f
;;; file third.s
	nop
1:	halt
