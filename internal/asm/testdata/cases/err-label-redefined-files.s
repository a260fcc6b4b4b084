X:
;;; file b.s
	nop
X:
