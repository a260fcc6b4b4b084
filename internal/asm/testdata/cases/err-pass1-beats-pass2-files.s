_start:
	j nowhere
;;; file b.s
	frob
